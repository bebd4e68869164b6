//! The unified **scenario API**: one declarative spec and one driving
//! trait behind every system the repo can simulate.
//!
//! The paper's claims are all statements about *one* epoch process under
//! different defenses — §III's dynamic layer alone, or §IV's minting
//! pipeline in force. Before this module that process was reachable only
//! through two unrelated constructor stacks (`DynamicSystem::new` + an
//! [`IdentityProvider`] vs `tg-pow`'s `FullSystem::new` builder chain),
//! and every consumer re-implemented the branching. The scenario API
//! collapses the split:
//!
//! ```text
//!        ScenarioSpec ──build()──▶ Box<dyn EpochDriver> ──step()──▶ &EpochObservation
//!        (declarative,             (erases the no-PoW /              (EpochReport ∪
//!         round-trips via           PoW split)                        FullEpochReport;
//!         label / JSON)                                               PoW fields Option)
//! ```
//!
//! * [`ScenarioSpec`] — everything that defines a run: construction
//!   [`Params`], topology ([`GraphKind`]), [`BuildMode`], the defense in
//!   force ([`Defense`]: none, single-hash, `f∘g`, each optionally with
//!   the §IV-B fresh-string defense disabled), the adversary's placement
//!   policy and budget ([`StrategySpec`]), and the master seed. The spec
//!   is declarative data: it round-trips through a stable, hand-rolled
//!   string label ([`ScenarioSpec::label`] / [`ScenarioSpec::parse`])
//!   and a flat JSON object ([`ScenarioSpec::to_json`] /
//!   [`ScenarioSpec::from_json`]) with no serde dependency.
//! * [`EpochDriver`] — the one verb every system understands:
//!   [`EpochDriver::step`] advances one epoch and returns a borrowed
//!   [`EpochObservation`]; [`EpochDriver::run`] batches `n` epochs
//!   through the same driver-owned observation buffers, so the hot sweep
//!   path (thousands of cells × epochs) re-allocates nothing per epoch.
//! * [`EpochObservation`] — the union of the §III `EpochReport` and the
//!   §IV `FullEpochReport`, with the PoW-only fields as `Option`s, plus
//!   the adversary census (`bad_ids`, `bad_share`) and captured-group
//!   counts that every sweep previously recomputed through ad-hoc
//!   provider wrappers.
//!
//! ## Who builds what
//!
//! Crate dependencies point upward (`tg-pow` depends on `tg-core`), so
//! this module's [`ScenarioSpec::build`] constructs every scenario the
//! core layer can express — [`Defense::NoPow`] with any non-PoW strategy
//! — and returns [`ScenarioError::NeedsPowLayer`] for specs that require
//! the minting pipeline. `tg_pow::scenario::build` is the **total**
//! builder: it accepts every spec, delegating the core-only ones here.
//! Consumers that link `tg-pow` (the experiments, perfbench, examples)
//! should always use the total builder.
//!
//! ## Relation to the frontier cell key
//!
//! The frontier engines address their seed streams through
//! `RowKey::label`, a format frozen before this module existed (the
//! committed golden corpus replays through it byte-for-byte). That label
//! is the legacy *projection* of a spec's categorical axes; new axes and
//! new consumers should key on [`ScenarioSpec::label`], which encodes
//! the complete scenario.

use crate::dynamic::adversary::{
    AdaptiveMajorityFlipper, AdversaryStrategy, ChurnTimed, GapFilling, IntervalTargeting,
    StrategicProvider, Uniform,
};
use crate::dynamic::build::{BuildMode, BuildStats};
use crate::dynamic::provider::{IdentityProvider, UniformProvider};
use crate::dynamic::system::EpochReport;
use crate::dynamic::DynamicSystem;
use crate::graph::{GraphsView, GroupGraphView};
use crate::params::{GroupSizeRule, Params};
use rand::rngs::StdRng;
use tg_idspace::Id;
use tg_overlay::GraphKind;
use tg_sim::Metrics;

pub use crate::runtime::RuntimeChoice;
pub use tg_sim::net::{FaultPlan, TransportChoice};

/// The epoch kernel of a spec. Fixed at `Arena`, the only kernel; kept
/// because `perfbench` still names it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum KernelChoice {
    /// The arena/SoA kernel behind [`DynamicSystem`].
    #[default]
    Arena,
}

impl KernelChoice {
    /// Parse a `kernel=` codec token: `arena` and the retired `legacy`
    /// both map to [`KernelChoice::Arena`].
    pub fn parse(s: &str) -> Option<KernelChoice> {
        matches!(s, "arena" | "legacy").then_some(KernelChoice::Arena)
    }
}

/// Which minting scheme a PoW pipeline runs (§IV-A). Lives here (rather
/// than in `tg-pow`, which re-exports it) so the defense axis of a
/// [`ScenarioSpec`] is expressible without the minting crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MintScheme {
    /// The paper's two-hash composition: minted IDs are u.a.r.
    /// regardless of the solver's σ choice (Lemma 11).
    TwoHash,
    /// The single-hash variant (`ID = σ` when `g(σ) ≤ τ`): the solver
    /// chooses the ID's location, so placement strategies go through.
    SingleHash,
}

impl MintScheme {
    /// Stable label for tables.
    pub fn name(&self) -> &'static str {
        match self {
            MintScheme::TwoHash => "f∘g",
            MintScheme::SingleHash => "single-hash",
        }
    }
}

/// The identity-pipeline defense of a scenario (the frontier's defense
/// column).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Defense {
    /// No PoW: chosen ID values go straight into the dynamic layer.
    NoPow,
    /// Puzzle minting under the given scheme. `fresh_strings: false`
    /// freezes minting to the genesis string — the §IV-B defense
    /// disabled.
    Pow {
        /// Minting scheme (placement realized vs discarded).
        scheme: MintScheme,
        /// Whether minting binds to a freshly agreed string each epoch.
        fresh_strings: bool,
    },
}

impl Defense {
    /// Stable column label for tables, CSVs, and the scenario codec.
    pub fn label(&self) -> &'static str {
        match self {
            Defense::NoPow => "none",
            Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: true } => "single-hash",
            Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: false } => {
                "single-hash-frozen"
            }
            Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true } => "f∘g",
            Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: false } => "f∘g-frozen",
        }
    }

    /// Parse a label produced by [`Defense::label`].
    pub fn parse(s: &str) -> Option<Defense> {
        Some(match s {
            "none" => Defense::NoPow,
            "single-hash" => Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: true },
            "single-hash-frozen" => {
                Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: false }
            }
            "f∘g" => Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true },
            "f∘g-frozen" => Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: false },
            _ => return None,
        })
    }
}

/// Where a PoW scenario's epoch strings come from. Irrelevant (and
/// ignored) under [`Defense::NoPow`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StringMode {
    /// The real Appendix VIII protocol runs over the operational graphs
    /// each epoch and minting binds to the agreed string (`tg-pow`'s
    /// `FullSystem`).
    Protocol,
    /// A synthesized per-epoch string stands in for the protocol (the
    /// provider-level shortcut the E10 sweep uses: same fresh-vs-frozen
    /// policy, no string-agreement simulation).
    Synthesized,
}

impl StringMode {
    /// Stable label for the scenario codec.
    pub fn label(&self) -> &'static str {
        match self {
            StringMode::Protocol => "protocol",
            StringMode::Synthesized => "synthesized",
        }
    }

    /// Parse a label produced by [`StringMode::label`].
    pub fn parse(s: &str) -> Option<StringMode> {
        Some(match s {
            "protocol" => StringMode::Protocol,
            "synthesized" => StringMode::Synthesized,
            _ => return None,
        })
    }
}

/// The adversary's placement policy, as declarative data (the runtime
/// [`AdversaryStrategy`] objects are built from this).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StrategySpec {
    /// No adversary strategy at all: the whole population (good and bad)
    /// follows the honest minting model ([`UniformProvider`] — distinct
    /// from [`StrategySpec::Uniform`], whose bad IDs go through the
    /// strategy engine's dedup path and therefore draw differently).
    Honest,
    /// The paper's standing assumption: bad IDs u.a.r.
    Uniform,
    /// Midpoints of the widest good-ID gaps.
    GapFilling,
    /// Concentrate on the arc ending at a victim key.
    IntervalTargeting {
        /// The victim key, as a ring fraction in `[0, 1)`.
        victim: f64,
        /// Width of the claimed arc, as a ring fraction.
        width: f64,
    },
    /// End-on gap claims whenever near-tied groups are observed.
    AdaptiveMajorityFlipper {
        /// Near-tie margin (members short of losing a good majority).
        margin: usize,
    },
    /// Camouflage in quiet epochs, full-budget end-on strike right
    /// after heavy good-ID departure.
    ChurnTimed {
        /// Observed departure fraction that triggers the strike.
        trigger: f64,
        /// Budget fraction spent uniformly in quiet epochs.
        retainer: f64,
    },
    /// Grind real puzzles each epoch and present the whole hoard
    /// (§IV-B). Needs the PoW layer — buildable only through
    /// `tg_pow::scenario::build`.
    PrecomputeHoarder {
        /// Seed of the oracle family the hoarder grinds with.
        fam_seed: u64,
        /// Grinding budget per epoch, in puzzle attempts.
        attempts: u64,
    },
}

impl StrategySpec {
    /// Stable strategy name for tables (the E10/E11/E12 sweep labels).
    pub fn name(&self) -> &'static str {
        match self {
            StrategySpec::Honest => "honest",
            StrategySpec::Uniform => "uniform",
            StrategySpec::GapFilling => "gap-filling",
            StrategySpec::IntervalTargeting { .. } => "interval-targeting",
            StrategySpec::AdaptiveMajorityFlipper { .. } => "adaptive-majority-flipper",
            StrategySpec::ChurnTimed { .. } => "churn-timed",
            StrategySpec::PrecomputeHoarder { .. } => "precompute-hoarder",
        }
    }

    /// Codec form: the name plus `:`-separated parameters.
    pub fn encode(&self) -> String {
        match *self {
            StrategySpec::IntervalTargeting { victim, width } => {
                format!("interval-targeting:{victim}:{width}")
            }
            StrategySpec::AdaptiveMajorityFlipper { margin } => {
                format!("adaptive-majority-flipper:{margin}")
            }
            StrategySpec::ChurnTimed { trigger, retainer } => {
                format!("churn-timed:{trigger}:{retainer}")
            }
            StrategySpec::PrecomputeHoarder { fam_seed, attempts } => {
                format!("precompute-hoarder:{fam_seed}:{attempts}")
            }
            _ => self.name().to_string(),
        }
    }

    /// Parse the form produced by [`StrategySpec::encode`].
    pub fn decode(s: &str) -> Option<StrategySpec> {
        let mut parts = s.split(':');
        let name = parts.next()?;
        let mut arg = || parts.next();
        Some(match name {
            "honest" => StrategySpec::Honest,
            "uniform" => StrategySpec::Uniform,
            "gap-filling" => StrategySpec::GapFilling,
            "interval-targeting" => {
                StrategySpec::IntervalTargeting { victim: finite(arg()?)?, width: finite(arg()?)? }
            }
            "adaptive-majority-flipper" => {
                StrategySpec::AdaptiveMajorityFlipper { margin: arg()?.parse().ok()? }
            }
            "churn-timed" => {
                StrategySpec::ChurnTimed { trigger: finite(arg()?)?, retainer: finite(arg()?)? }
            }
            "precompute-hoarder" => StrategySpec::PrecomputeHoarder {
                fam_seed: arg()?.parse().ok()?,
                attempts: arg()?.parse().ok()?,
            },
            _ => return None,
        })
    }

    /// Build the runtime strategy object, or `None` for the variants the
    /// core layer cannot construct ([`StrategySpec::Honest`] is a
    /// provider, not a strategy; the hoarder needs `tg-pow`).
    pub fn build_strategy(&self) -> Option<Box<dyn AdversaryStrategy>> {
        Some(match *self {
            StrategySpec::Honest | StrategySpec::PrecomputeHoarder { .. } => return None,
            StrategySpec::Uniform => Box::new(Uniform),
            StrategySpec::GapFilling => Box::new(GapFilling),
            StrategySpec::IntervalTargeting { victim, width } => {
                Box::new(IntervalTargeting { victim: Id::from_f64(victim), width })
            }
            StrategySpec::AdaptiveMajorityFlipper { margin } => {
                Box::new(AdaptiveMajorityFlipper { margin })
            }
            StrategySpec::ChurnTimed { trigger, retainer } => {
                Box::new(ChurnTimed { trigger, retainer })
            }
        })
    }
}

/// The string-layer adversary of a PoW scenario, as declarative data
/// (the spec-level mirror of `tg_pow::strings::StringAdversary`, which
/// `tg_pow::scenario::build` constructs from this). Folding it into the
/// spec makes the §IV-B hoarding attacks addressable through the codec
/// — sweepable, storable, and round-trippable like every other axis.
///
/// Codec key: `stradv=` (the natural name `strings=` is taken by
/// [`StringMode`], the string-*source* axis; the two are orthogonal —
/// source says where epoch strings come from, adversary says who
/// tampers with their release).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum StringAdversarySpec {
    /// No string-layer interference (the default).
    #[default]
    None,
    /// Withhold a fraction of agreed strings, releasing them late so
    /// minting windows shrink (§IV-B's delayed-release attack).
    DelayedRelease {
        /// How many recent strings the adversary hoards.
        strings: usize,
        /// Fraction of each minting window the release is delayed by.
        release_frac: f64,
        /// Adversarial compute, in the same units as the minting budget.
        units: f64,
    },
    /// Force stale string records into circulation so verifiers must
    /// track extra candidates (§IV-B's forced-records attack).
    ForcedRecords {
        /// How many stale strings the adversary keeps alive.
        strings: usize,
        /// Fraction of verifiers exposed to the stale records.
        release_frac: f64,
    },
}

impl StringAdversarySpec {
    /// Codec form: `none`, `delayed:{strings}:{release_frac}:{units}`,
    /// or `records:{strings}:{release_frac}`.
    pub fn encode(&self) -> String {
        match *self {
            StringAdversarySpec::None => "none".to_string(),
            StringAdversarySpec::DelayedRelease { strings, release_frac, units } => {
                format!("delayed:{strings}:{release_frac}:{units}")
            }
            StringAdversarySpec::ForcedRecords { strings, release_frac } => {
                format!("records:{strings}:{release_frac}")
            }
        }
    }

    /// Parse the form produced by [`StringAdversarySpec::encode`].
    pub fn decode(s: &str) -> Option<StringAdversarySpec> {
        let mut parts = s.split(':');
        let name = parts.next()?;
        let mut arg = || parts.next();
        let spec = match name {
            "none" => StringAdversarySpec::None,
            "delayed" => StringAdversarySpec::DelayedRelease {
                strings: arg()?.parse().ok()?,
                release_frac: finite(arg()?)?,
                units: finite(arg()?)?,
            },
            "records" => StringAdversarySpec::ForcedRecords {
                strings: arg()?.parse().ok()?,
                release_frac: finite(arg()?)?,
            },
            _ => return None,
        };
        if arg().is_some() {
            return None;
        }
        Some(spec)
    }
}

/// Everything that defines one simulated scenario. See the module docs
/// for the shape of the API; see [`ScenarioSpec::new`] for defaults.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Construction constants (β, δ, d₁/d₂, size rule, churn, the
    /// join-request attack intensity, link retries).
    pub params: Params,
    /// Input-graph topology family.
    pub kind: GraphKind,
    /// Dual-graph (paper) or single-graph (ablation) construction.
    pub mode: BuildMode,
    /// Identity-pipeline defense in force.
    pub defense: Defense,
    /// Epoch-string source under PoW (ignored for [`Defense::NoPow`]).
    pub strings: StringMode,
    /// The adversary's placement policy.
    pub strategy: StrategySpec,
    /// Good IDs per epoch.
    pub n_good: usize,
    /// The adversary's identity budget per epoch (`≈ βn`; under PoW this
    /// is its compute in units, one expected solution per unit per
    /// window).
    pub n_bad: usize,
    /// Idealized good minting (paper assumption) vs realistic
    /// missed-window losses — PoW statistical pipeline only.
    pub idealized_good: bool,
    /// Robustness searches sampled per epoch.
    pub searches: usize,
    /// Master seed; every labelled RNG stream of the run derives from
    /// it.
    pub seed: u64,
    /// Fixed at [`KernelChoice::Arena`]; kept for `perfbench`. Labels
    /// never emit it, and a `kernel=` token in an older label parses as
    /// a no-op.
    pub kernel: KernelChoice,
    /// Arena member-column capacity hint (pre-sizes the hot allocation,
    /// never changes results). Codec-optional: emitted as `cap=` only
    /// when set, so labels without it parse unchanged.
    pub capacity: Option<usize>,
    /// Which execution model advances the epochs: one synchronous
    /// in-process step ([`RuntimeChoice::Sync`], the conformance
    /// oracle) or per-node actors over an injectable transport
    /// ([`RuntimeChoice::Actor`]). Codec-optional like `capacity`: over
    /// a perfect transport both runtimes produce identical observations.
    pub runtime: RuntimeChoice,
    /// Fault plan for the actor runtime's transport (drops, latency,
    /// partitions — all seeded, see `tg_sim::net`). Ignored under
    /// [`RuntimeChoice::Sync`]. Codec-optional: each knob is emitted
    /// only when non-zero (`drop=`, `lat=`, `part=`).
    pub faults: FaultPlan,
    /// Which transport implementation carries the actor runtime's
    /// messages: the deterministic in-memory network or real loopback
    /// TCP sockets. `transport=socket` requires
    /// [`RuntimeChoice::Actor`] — the combination with `runtime=sync`
    /// is rejected at parse/build time
    /// ([`ScenarioError::NeedsActorRuntime`]). Codec-optional
    /// (`transport=`, emitted only when non-default).
    pub transport: TransportChoice,
    /// Pin the actor runtime's phase-window deadline to exactly this
    /// many ticks instead of adapting it to observed latency. `None`
    /// (the default) selects the adaptive window. Codec-optional
    /// (`window=`).
    pub window: Option<u64>,
    /// The string-layer adversary (§IV-B hoarding attacks). Applied by
    /// `tg_pow::scenario::build` when the spec runs the real string
    /// protocol; inert under [`Defense::NoPow`]. Codec-optional
    /// (`stradv=`, emitted only when non-default).
    pub string_adversary: StringAdversarySpec,
}

impl ScenarioSpec {
    /// A scenario with the paper's defaults: honest identities, no PoW,
    /// Chord topology, dual-graph construction, `Params::paper_defaults`
    /// (β = 0.05 — `n_bad` is derived as `round(β/(1−β)·n_good)`), 400
    /// searches per epoch.
    pub fn new(n_good: usize, seed: u64) -> ScenarioSpec {
        let params = Params::paper_defaults();
        ScenarioSpec {
            params,
            kind: GraphKind::Chord,
            mode: BuildMode::DualGraph,
            defense: Defense::NoPow,
            strings: StringMode::Protocol,
            strategy: StrategySpec::Honest,
            n_good,
            n_bad: budget_for(params.beta, n_good),
            idealized_good: true,
            searches: 400,
            seed,
            kernel: KernelChoice::default(),
            capacity: None,
            runtime: RuntimeChoice::default(),
            faults: FaultPlan::default(),
            transport: TransportChoice::default(),
            window: None,
            string_adversary: StringAdversarySpec::default(),
        }
    }

    /// Set β and re-derive the adversary budget from it.
    pub fn beta(mut self, beta: f64) -> Self {
        self.params.beta = beta;
        self.n_bad = budget_for(beta, self.n_good);
        self
    }

    /// Set the adversary budget explicitly (overrides the β-derived
    /// count).
    pub fn budget(mut self, n_bad: usize) -> Self {
        self.n_bad = n_bad;
        self
    }

    /// Set the group-size factor `d₂` (and `d₁ = d₂/2`, the sweep
    /// convention).
    pub fn group_factor(mut self, d2: f64) -> Self {
        self.params.d2 = d2;
        self.params.d1 = d2 / 2.0;
        self
    }

    /// Set the per-epoch good-departure fraction.
    pub fn churn(mut self, churn: f64) -> Self {
        self.params.churn_rate = churn;
        self
    }

    /// Set the join-request attack intensity (Lemma 10's state attack).
    pub fn attack_requests(mut self, per_id: usize) -> Self {
        self.params.attack_requests_per_id = per_id;
        self
    }

    /// Set the link-update retry budget (E4's ablation knob).
    pub fn link_retries(mut self, retries: usize) -> Self {
        self.params.link_retries = retries;
        self
    }

    /// Replace the construction parameters wholesale.
    pub fn params(mut self, params: Params) -> Self {
        self.params = params;
        self
    }

    /// Set the input-graph topology family.
    pub fn topology(mut self, kind: GraphKind) -> Self {
        self.kind = kind;
        self
    }

    /// Set dual-graph vs single-graph construction.
    pub fn build_mode(mut self, mode: BuildMode) -> Self {
        self.mode = mode;
        self
    }

    /// Set the identity-pipeline defense.
    pub fn defense(mut self, defense: Defense) -> Self {
        self.defense = defense;
        self
    }

    /// Set the epoch-string source under PoW.
    pub fn strings(mut self, strings: StringMode) -> Self {
        self.strings = strings;
        self
    }

    /// Set the adversary's placement policy.
    pub fn strategy(mut self, strategy: StrategySpec) -> Self {
        self.strategy = strategy;
        self
    }

    /// Set the robustness searches sampled per epoch.
    pub fn searches(mut self, searches: usize) -> Self {
        self.searches = searches;
        self
    }

    /// Set idealized vs realistic good minting (PoW statistical
    /// pipeline).
    pub fn idealized(mut self, idealized_good: bool) -> Self {
        self.idealized_good = idealized_good;
        self
    }

    /// Set the arena member-column capacity hint.
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Select the epoch runtime (synchronous in-process vs per-node
    /// actors over a transport).
    pub fn runtime(mut self, runtime: RuntimeChoice) -> Self {
        self.runtime = runtime;
        self
    }

    /// Replace the transport fault plan wholesale.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Set the transport's per-message drop probability.
    pub fn drop_rate(mut self, drop_rate: f64) -> Self {
        self.faults.drop_rate = drop_rate;
        self
    }

    /// Set the transport's maximum per-message latency (ticks).
    pub fn latency(mut self, latency_max: u64) -> Self {
        self.faults.latency_max = latency_max;
        self
    }

    /// Set the per-phase partition window (ticks).
    pub fn partition(mut self, partition_ticks: u64) -> Self {
        self.faults.partition_ticks = partition_ticks;
        self
    }

    /// Select the transport implementation (in-memory vs loopback TCP).
    /// `transport=socket` needs [`RuntimeChoice::Actor`]; the build
    /// rejects the sync combination.
    pub fn transport(mut self, transport: TransportChoice) -> Self {
        self.transport = transport;
        self
    }

    /// Pin the actor runtime's phase-window deadline (ticks) instead of
    /// adapting it to observed latency.
    pub fn window(mut self, ticks: u64) -> Self {
        self.window = Some(ticks);
        self
    }

    /// Set the string-layer adversary (§IV-B hoarding attacks).
    pub fn string_adversary(mut self, adversary: StringAdversarySpec) -> Self {
        self.string_adversary = adversary;
        self
    }

    /// Build the scenario's driver, for every spec the core layer can
    /// express ([`Defense::NoPow`] with a non-PoW strategy).
    ///
    /// Specs that need the minting pipeline return
    /// [`ScenarioError::NeedsPowLayer`]; build those through the total
    /// builder, `tg_pow::scenario::build`.
    pub fn build(&self) -> Result<Box<dyn EpochDriver>, ScenarioError> {
        self.check_transport()?;
        if self.defense != Defense::NoPow {
            return Err(ScenarioError::NeedsPowLayer("the defense mints through puzzles"));
        }
        let inner: Box<dyn IdentityProvider> = match self.strategy {
            StrategySpec::Honest => {
                Box::new(UniformProvider { n_good: self.n_good, n_bad: self.n_bad })
            }
            StrategySpec::PrecomputeHoarder { .. } => {
                return Err(ScenarioError::NeedsPowLayer("the hoarder grinds real puzzles"));
            }
            _ => {
                let strategy = self.strategy.build_strategy().expect("non-PoW strategy");
                Box::new(StrategicProvider::boxed(self.n_good, self.n_bad, strategy))
            }
        };
        Ok(driver_with_provider(self, inner))
    }

    /// Reject axis combinations no transport can serve: a socket
    /// transport without an actor runtime has nobody to move bytes for.
    /// Called by every builder (core and `tg_pow`) *and* by the codec,
    /// so the invalid combination is unrepresentable from any entry
    /// point.
    pub fn check_transport(&self) -> Result<(), ScenarioError> {
        if self.transport == TransportChoice::Socket && self.runtime != RuntimeChoice::Actor {
            return Err(ScenarioError::NeedsActorRuntime(
                "transport=socket moves actor protocol messages; pair it with runtime=actor",
            ));
        }
        Ok(())
    }
}

/// The kernel-over-provider driver for `spec`'s runtime choice: the
/// synchronous [`DynamicDriver`] or the actor-runtime
/// [`ActorDriver`](crate::runtime::ActorDriver). Used by both
/// [`ScenarioSpec::build`] and the `tg_pow` total builder's
/// provider-composed arms.
pub fn driver_with_provider(
    spec: &ScenarioSpec,
    inner: Box<dyn IdentityProvider>,
) -> Box<dyn EpochDriver> {
    match spec.runtime {
        RuntimeChoice::Sync => Box::new(DynamicDriver::with_provider(spec, inner)),
        RuntimeChoice::Actor => Box::new(crate::runtime::ActorDriver::with_provider(spec, inner)),
    }
}

/// `round(β/(1−β) · n_good)` — the adversary budget every sweep derives
/// from β (bad IDs are a β-fraction of the *total* population).
pub fn budget_for(beta: f64, n_good: usize) -> usize {
    (beta / (1.0 - beta) * n_good as f64).round() as usize
}

/// Why a scenario could not be built or parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioError {
    /// The spec needs `tg-pow` (use `tg_pow::scenario::build`).
    NeedsPowLayer(&'static str),
    /// The spec selects a transport that only the actor runtime can
    /// drive (`transport=socket` with `runtime=sync`). Caught at
    /// parse/build time so no run ever starts on an unserviceable
    /// network.
    NeedsActorRuntime(&'static str),
    /// The spec combines axes no driver implements (e.g. the real
    /// string protocol over a single-graph construction).
    Unsupported(&'static str),
    /// A label/JSON form did not decode.
    Parse(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::NeedsPowLayer(why) => {
                write!(f, "scenario needs the PoW layer ({why}); build it via tg_pow::scenario")
            }
            ScenarioError::NeedsActorRuntime(why) => {
                write!(f, "scenario needs the actor runtime ({why})")
            }
            ScenarioError::Unsupported(why) => write!(f, "unsupported scenario: {why}"),
            ScenarioError::Parse(msg) => write!(f, "scenario parse error: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

// --- codec -----------------------------------------------------------

/// Codec version tag leading every label (and stored in the JSON form):
/// parsing rejects anything else, so the format can evolve without
/// silently misreading old keys.
const CODEC_VERSION: &str = "tg1";

/// Decode one real-valued codec number. `NaN` and the infinities are
/// rejected: `NaN != NaN`, so a spec holding one would not equal its own
/// reparsed label, and no axis has a meaning at infinity.
fn finite(s: &str) -> Option<f64> {
    s.parse::<f64>().ok().filter(|x| x.is_finite())
}

fn encode_rule(rule: GroupSizeRule) -> String {
    match rule {
        GroupSizeRule::TinyLogLog => "loglog".to_string(),
        GroupSizeRule::ClassicLog { c } => format!("log:{c}"),
        GroupSizeRule::Fixed(k) => format!("fixed:{k}"),
    }
}

fn decode_rule(s: &str) -> Option<GroupSizeRule> {
    if s == "loglog" {
        return Some(GroupSizeRule::TinyLogLog);
    }
    if let Some(c) = s.strip_prefix("log:") {
        return Some(GroupSizeRule::ClassicLog { c: finite(c)? });
    }
    if let Some(k) = s.strip_prefix("fixed:") {
        return Some(GroupSizeRule::Fixed(k.parse().ok()?));
    }
    None
}

fn encode_mode(mode: BuildMode) -> &'static str {
    match mode {
        BuildMode::DualGraph => "dual",
        BuildMode::SingleGraph => "single",
    }
}

fn decode_mode(s: &str) -> Option<BuildMode> {
    match s {
        "dual" => Some(BuildMode::DualGraph),
        "single" => Some(BuildMode::SingleGraph),
        _ => None,
    }
}

/// Whether a codec value is numeric or boolean (emitted bare in JSON)
/// rather than a string (quoted).
fn bare_json_value(v: &str) -> bool {
    v == "true" || v == "false" || v.parse::<f64>().is_ok()
}

/// The codec's field names, in emission order — the one list both
/// directions share: [`ScenarioSpec::fields`] zips values against it
/// and [`ScenarioSpec::from_fields`] validates keys with it, so a new
/// axis is added in exactly one place (plus its value/assignment).
const KEYS: [&str; 18] = [
    "n",
    "bad",
    "seed",
    "searches",
    "kind",
    "mode",
    "defense",
    "strings",
    "strategy",
    "idealized",
    "beta",
    "delta",
    "d1",
    "d2",
    "rule",
    "churn",
    "attack",
    "retries",
];

/// Codec fields added after `tg1` froze: emitted only when they differ
/// from their defaults, accepted (at most once) whether present or not.
/// Every label or JSON form written before these keys existed therefore
/// parses to a spec with the defaults — byte-compatible both ways.
/// `kernel` is never emitted any more; it is still accepted (and
/// validated) so older labels keep parsing.
const OPTIONAL_KEYS: [&str; 9] =
    ["kernel", "cap", "runtime", "drop", "lat", "part", "transport", "window", "stradv"];

impl ScenarioSpec {
    /// The spec as ordered `(key, value)` codec fields — the single
    /// source both serialized forms are generated from.
    fn fields(&self) -> Vec<(&'static str, String)> {
        let p = &self.params;
        let values = vec![
            self.n_good.to_string(),
            self.n_bad.to_string(),
            self.seed.to_string(),
            self.searches.to_string(),
            self.kind.name().to_string(),
            encode_mode(self.mode).to_string(),
            self.defense.label().to_string(),
            self.strings.label().to_string(),
            self.strategy.encode(),
            self.idealized_good.to_string(),
            p.beta.to_string(),
            p.delta.to_string(),
            p.d1.to_string(),
            p.d2.to_string(),
            encode_rule(p.size_rule),
            p.churn_rate.to_string(),
            p.attack_requests_per_id.to_string(),
            p.link_retries.to_string(),
        ];
        debug_assert_eq!(values.len(), KEYS.len());
        let mut fields: Vec<(&'static str, String)> = KEYS.into_iter().zip(values).collect();
        if let Some(cap) = self.capacity {
            fields.push(("cap", cap.to_string()));
        }
        if self.runtime != RuntimeChoice::default() {
            fields.push(("runtime", self.runtime.label().to_string()));
        }
        if self.faults.drop_rate != 0.0 {
            fields.push(("drop", self.faults.drop_rate.to_string()));
        }
        if self.faults.latency_max != 0 {
            fields.push(("lat", self.faults.latency_max.to_string()));
        }
        if self.faults.partition_ticks != 0 {
            fields.push(("part", self.faults.partition_ticks.to_string()));
        }
        if self.transport != TransportChoice::default() {
            fields.push(("transport", self.transport.label().to_string()));
        }
        if let Some(window) = self.window {
            fields.push(("window", window.to_string()));
        }
        if self.string_adversary != StringAdversarySpec::default() {
            fields.push(("stradv", self.string_adversary.encode()));
        }
        fields
    }

    /// Rebuild a spec from codec fields (order-insensitive; every field
    /// required exactly once).
    fn from_fields(pairs: &[(String, String)]) -> Result<ScenarioSpec, ScenarioError> {
        let err = |msg: &str| ScenarioError::Parse(msg.to_string());
        let get = |key: &str| -> Result<&str, ScenarioError> {
            let mut found = pairs.iter().filter(|(k, _)| k == key);
            let first = found.next().ok_or_else(|| err(&format!("missing field `{key}`")))?;
            if found.next().is_some() {
                return Err(err(&format!("duplicate field `{key}`")));
            }
            Ok(&first.1)
        };
        let num = |key: &str| -> Result<f64, ScenarioError> {
            finite(get(key)?).ok_or_else(|| err(&format!("field `{key}` is not a finite number")))
        };
        let int = |key: &str| -> Result<u64, ScenarioError> {
            get(key)?.parse().map_err(|_| err(&format!("field `{key}` is not an integer")))
        };
        for (k, _) in pairs {
            if !KEYS.contains(&k.as_str()) && !OPTIONAL_KEYS.contains(&k.as_str()) {
                return Err(err(&format!("unknown field `{k}`")));
            }
        }
        // Optional fields: absent means default, present at most once.
        let opt = |key: &str| -> Result<Option<&str>, ScenarioError> {
            let mut found = pairs.iter().filter(|(k, _)| k == key);
            let first = found.next();
            if found.next().is_some() {
                return Err(err(&format!("duplicate field `{key}`")));
            }
            Ok(first.map(|(_, v)| v.as_str()))
        };
        let kernel = match opt("kernel")? {
            None => KernelChoice::default(),
            Some(v) => KernelChoice::parse(v).ok_or_else(|| err("bad `kernel`"))?,
        };
        let capacity = match opt("cap")? {
            None => None,
            Some(v) => {
                Some(v.parse::<u64>().map_err(|_| err("field `cap` is not an integer"))? as usize)
            }
        };
        let runtime = match opt("runtime")? {
            None => RuntimeChoice::default(),
            Some(v) => RuntimeChoice::parse(v).ok_or_else(|| err("bad `runtime`"))?,
        };
        let mut faults = FaultPlan::default();
        if let Some(v) = opt("drop")? {
            faults.drop_rate =
                finite(v).ok_or_else(|| err("field `drop` is not a finite number"))?;
            if !(0.0..=1.0).contains(&faults.drop_rate) {
                return Err(err("field `drop` is not a probability"));
            }
        }
        if let Some(v) = opt("lat")? {
            faults.latency_max = v.parse().map_err(|_| err("field `lat` is not an integer"))?;
        }
        if let Some(v) = opt("part")? {
            faults.partition_ticks =
                v.parse().map_err(|_| err("field `part` is not an integer"))?;
        }
        let transport = match opt("transport")? {
            None => TransportChoice::default(),
            Some(v) => TransportChoice::parse(v).ok_or_else(|| err("bad `transport`"))?,
        };
        let window = match opt("window")? {
            None => None,
            Some(v) => {
                let ticks: u64 = v.parse().map_err(|_| err("field `window` is not an integer"))?;
                if ticks == 0 {
                    return Err(err("field `window` must be positive"));
                }
                Some(ticks)
            }
        };
        let string_adversary = match opt("stradv")? {
            None => StringAdversarySpec::default(),
            Some(v) => StringAdversarySpec::decode(v).ok_or_else(|| err("bad `stradv`"))?,
        };
        let mut params = Params::paper_defaults();
        params.beta = num("beta")?;
        params.delta = num("delta")?;
        params.d1 = num("d1")?;
        params.d2 = num("d2")?;
        params.size_rule = decode_rule(get("rule")?).ok_or_else(|| err("bad `rule`"))?;
        params.churn_rate = num("churn")?;
        params.attack_requests_per_id = int("attack")? as usize;
        params.link_retries = int("retries")? as usize;
        let spec = ScenarioSpec {
            params,
            kind: GraphKind::parse(get("kind")?).ok_or_else(|| err("bad `kind`"))?,
            mode: decode_mode(get("mode")?).ok_or_else(|| err("bad `mode`"))?,
            defense: Defense::parse(get("defense")?).ok_or_else(|| err("bad `defense`"))?,
            strings: StringMode::parse(get("strings")?).ok_or_else(|| err("bad `strings`"))?,
            strategy: StrategySpec::decode(get("strategy")?)
                .ok_or_else(|| err("bad `strategy`"))?,
            n_good: int("n")? as usize,
            n_bad: int("bad")? as usize,
            idealized_good: get("idealized")?
                .parse()
                .map_err(|_| err("field `idealized` is not a bool"))?,
            searches: int("searches")? as usize,
            seed: int("seed")?,
            kernel,
            capacity,
            runtime,
            faults,
            transport,
            window,
            string_adversary,
        };
        spec.check_transport()?;
        Ok(spec)
    }

    /// The canonical one-line label: `tg1;key=value;…`. Stable across
    /// releases (versioned by the leading tag) and exactly invertible by
    /// [`ScenarioSpec::parse`] — fit for file names, cache keys, and
    /// seed-stream labels.
    pub fn label(&self) -> String {
        let mut out = String::from(CODEC_VERSION);
        for (k, v) in self.fields() {
            out.push(';');
            out.push_str(k);
            out.push('=');
            out.push_str(&v);
        }
        out
    }

    /// Parse a label produced by [`ScenarioSpec::label`].
    pub fn parse(label: &str) -> Result<ScenarioSpec, ScenarioError> {
        let err = |msg: &str| ScenarioError::Parse(msg.to_string());
        let mut parts = label.split(';');
        if parts.next() != Some(CODEC_VERSION) {
            return Err(err(&format!("label must start with `{CODEC_VERSION};`")));
        }
        let pairs: Vec<(String, String)> = parts
            .map(|p| {
                let (k, v) =
                    p.split_once('=').ok_or_else(|| err(&format!("field `{p}` has no `=`")))?;
                Ok((k.to_string(), v.to_string()))
            })
            .collect::<Result<_, ScenarioError>>()?;
        ScenarioSpec::from_fields(&pairs)
    }

    /// The spec as a flat JSON object (hand-rolled; the workspace
    /// vendors no serde). Numbers and booleans are bare, everything else
    /// is a quoted string; a `"codec"` field carries the version tag.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"codec\": \"{CODEC_VERSION}\""));
        for (k, v) in self.fields() {
            out.push_str(",\n");
            if bare_json_value(&v) {
                out.push_str(&format!("  \"{k}\": {v}"));
            } else {
                out.push_str(&format!("  \"{k}\": \"{v}\""));
            }
        }
        out.push_str("\n}\n");
        out
    }

    /// Parse the flat JSON form produced by [`ScenarioSpec::to_json`].
    ///
    /// This is a scanner for exactly that shape — one object of
    /// string/number/boolean fields, no nesting, no escapes (no codec
    /// value contains `"`, `,`, or `\`) — not a general JSON parser.
    pub fn from_json(json: &str) -> Result<ScenarioSpec, ScenarioError> {
        let err = |msg: &str| ScenarioError::Parse(msg.to_string());
        let body = json
            .trim()
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| err("not a JSON object"))?;
        let mut pairs = Vec::new();
        for field in body.split(',') {
            let field = field.trim();
            if field.is_empty() {
                continue;
            }
            let (k, v) = field.split_once(':').ok_or_else(|| err("field without `:`"))?;
            let k = k.trim().strip_prefix('"').and_then(|s| s.strip_suffix('"'));
            let k = k.ok_or_else(|| err("key is not a string"))?;
            let v = v.trim();
            let v = v.strip_prefix('"').and_then(|s| s.strip_suffix('"')).unwrap_or(v);
            pairs.push((k.to_string(), v.to_string()));
        }
        let codec = pairs.iter().position(|(k, _)| k == "codec");
        match codec {
            Some(i) if pairs[i].1 == CODEC_VERSION => {
                pairs.remove(i);
            }
            _ => return Err(err(&format!("JSON form must carry codec `{CODEC_VERSION}`"))),
        }
        ScenarioSpec::from_fields(&pairs)
    }
}

// --- the driver ------------------------------------------------------

/// Everything one epoch produced, across both system layers: the §III
/// dynamic measurements (always present) and the §IV string/minting
/// measurements (`None` when the scenario runs without the PoW layer or
/// with synthesized strings).
#[derive(Clone, Debug, Default)]
pub struct EpochObservation {
    /// Epoch index the freshly built graphs serve.
    pub epoch: u64,
    /// Red fraction per side.
    pub frac_red: Vec<f64>,
    /// Good-majority fraction per side.
    pub frac_good_majority: Vec<f64>,
    /// Confused fraction per side.
    pub frac_confused: Vec<f64>,
    /// Paper-invariant fraction per side.
    pub frac_paper_invariant: Vec<f64>,
    /// Search success using a single side (the `q_f` realization).
    pub search_success_single: f64,
    /// Search success using both sides (what the protocol achieves).
    pub search_success_dual: f64,
    /// Construction counters.
    pub build: BuildStats,
    /// Per-good-pool-ID group memberships (Lemma 10): mean.
    pub mean_memberships: f64,
    /// Maximum memberships held by one good pool ID.
    pub max_memberships: usize,
    /// Messages spent on construction searches this epoch.
    pub metrics: Metrics,
    /// Adversarial IDs that entered the dynamic layer this epoch (under
    /// PoW: the minted bad count).
    pub bad_ids: usize,
    /// Key-space fraction those IDs own under the successor rule.
    pub bad_share: f64,
    /// Groups without a good majority, summed over all sides, measured
    /// on the freshly built graphs.
    pub captured_groups: usize,
    /// Total groups across all sides.
    pub total_groups: usize,
    /// The epoch string minting bound to (PoW only).
    pub epoch_string: Option<u64>,
    /// Whether the string protocol reached Lemma 12 agreement
    /// ([`StringMode::Protocol`] only).
    pub strings_agreement: Option<bool>,
    /// Fraction of good giant-component pairs able to verify each
    /// other's signing strings ([`StringMode::Protocol`] only).
    pub verification_coverage: Option<f64>,
    /// Good IDs minted for the epoch (PoW only).
    pub minted_good: Option<usize>,
    /// Good participants who missed the minting window (PoW statistical
    /// pipeline only).
    pub good_misses: Option<usize>,
    /// Protocol messages whose delivery tick fell past the phase-window
    /// deadline this epoch (`tg_sim::net::NetStats::late`, as a
    /// per-epoch delta). Always `0` under [`RuntimeChoice::Sync`] — the
    /// synchronous drivers have no network — and under the actor
    /// runtime's perfect transport, which keeps the sync/actor
    /// observation equivalence exact.
    pub late: u64,
}

impl EpochObservation {
    /// Captured groups as a fraction of all groups (the frontier
    /// engines' cell metric).
    pub fn captured_frac(&self) -> f64 {
        self.captured_groups as f64 / self.total_groups.max(1) as f64
    }

    /// Refill the dynamic-layer fields from an [`EpochReport`] and the
    /// post-swap operational graphs, reusing this observation's buffers
    /// (the batched-driver hot path re-allocates nothing per epoch).
    /// PoW fields are reset to `None`; drivers with a minting layer fill
    /// them afterwards.
    pub fn fill_dynamic(&mut self, r: &EpochReport, graphs: GraphsView<'_>) {
        self.epoch = r.epoch;
        for (dst, src) in [
            (&mut self.frac_red, &r.frac_red),
            (&mut self.frac_good_majority, &r.frac_good_majority),
            (&mut self.frac_confused, &r.frac_confused),
            (&mut self.frac_paper_invariant, &r.frac_paper_invariant),
        ] {
            dst.clear();
            dst.extend_from_slice(src);
        }
        self.search_success_single = r.search_success_single;
        self.search_success_dual = r.search_success_dual;
        self.build = r.build;
        self.mean_memberships = r.mean_memberships;
        self.max_memberships = r.max_memberships;
        self.metrics = r.metrics;
        let (mut captured, mut total) = (0usize, 0usize);
        for g in graphs.iter() {
            total += g.len();
            captured += (0..g.len()).filter(|&i| !g.has_good_majority(i)).count();
        }
        self.captured_groups = captured;
        self.total_groups = total;
        self.epoch_string = None;
        self.strings_agreement = None;
        self.verification_coverage = None;
        self.minted_good = None;
        self.good_misses = None;
        self.late = 0;
    }
}

/// The scalar projection of one [`EpochObservation`] — the `Copy` row a
/// batched run appends to its [`ObservationBatch`]. Optional PoW counts
/// are encoded as `f64::NAN` when the scenario has no minting layer,
/// keeping every column a plain numeric slice.
#[derive(Clone, Copy, Debug)]
pub struct ObsRow {
    /// Epoch index the freshly built graphs serve.
    pub epoch: u64,
    /// Search success using a single side.
    pub search_success_single: f64,
    /// Search success using both sides.
    pub search_success_dual: f64,
    /// Side-0 red fraction.
    pub frac_red_s0: f64,
    /// Groups without a good majority, all sides.
    pub captured_groups: u32,
    /// Total groups, all sides.
    pub total_groups: u32,
    /// Adversarial IDs that entered the dynamic layer.
    pub bad_ids: u32,
    /// Key-space fraction those IDs own.
    pub bad_share: f64,
    /// Mean per-good-pool-ID memberships.
    pub mean_memberships: f64,
    /// Good IDs minted (PoW only; `NAN` otherwise).
    pub minted_good: f64,
    /// Good minting-window misses (PoW statistical pipeline; `NAN`
    /// otherwise).
    pub good_misses: f64,
    /// Messages past the phase-window deadline this epoch (`0` outside
    /// the actor runtime).
    pub late: u64,
}

impl ObsRow {
    /// Project an observation onto the batch columns.
    pub fn of(o: &EpochObservation) -> ObsRow {
        ObsRow {
            epoch: o.epoch,
            search_success_single: o.search_success_single,
            search_success_dual: o.search_success_dual,
            frac_red_s0: o.frac_red.first().copied().unwrap_or(0.0),
            captured_groups: o.captured_groups as u32,
            total_groups: o.total_groups as u32,
            bad_ids: o.bad_ids as u32,
            bad_share: o.bad_share,
            mean_memberships: o.mean_memberships,
            minted_good: o.minted_good.map(|v| v as f64).unwrap_or(f64::NAN),
            good_misses: o.good_misses.map(|v| v as f64).unwrap_or(f64::NAN),
            late: o.late,
        }
    }

    /// Version tag leading every encoded row line. `o2` appended the
    /// `late` column; `o1` streams in old stores no longer decode (the
    /// store is a local cache, so a stale stream re-simulates).
    pub const LINE_VERSION: &'static str = "o2";

    /// Encode the row as one versioned, comma-separated text line, the
    /// record payload the result store keeps per epoch. Floats are
    /// rendered with `Display`, whose shortest-round-trip guarantee
    /// makes [`ObsRow::decode_line`] bit-exact — a warm sweep recomputes
    /// the same statistics as the live run that wrote the stream.
    pub fn encode_line(&self) -> String {
        format!(
            "{};{},{},{},{},{},{},{},{},{},{},{},{}",
            Self::LINE_VERSION,
            self.epoch,
            self.search_success_single,
            self.search_success_dual,
            self.frac_red_s0,
            self.captured_groups,
            self.total_groups,
            self.bad_ids,
            self.bad_share,
            self.mean_memberships,
            self.minted_good,
            self.good_misses,
            self.late,
        )
    }

    /// Decode one [`ObsRow::encode_line`] line; rejects unknown
    /// versions and malformed fields with a description.
    pub fn decode_line(line: &str) -> Result<ObsRow, String> {
        let (version, body) =
            line.split_once(';').ok_or_else(|| format!("missing version tag in `{line}`"))?;
        if version != Self::LINE_VERSION {
            return Err(format!(
                "unsupported row version `{version}` (want {})",
                Self::LINE_VERSION
            ));
        }
        let fields: Vec<&str> = body.split(',').collect();
        if fields.len() != 12 {
            return Err(format!("expected 12 fields, found {} in `{line}`", fields.len()));
        }
        let f = |i: usize| -> Result<f64, String> {
            fields[i].parse().map_err(|e| format!("field {i} `{}`: {e}", fields[i]))
        };
        let u = |i: usize| -> Result<u32, String> {
            fields[i].parse().map_err(|e| format!("field {i} `{}`: {e}", fields[i]))
        };
        Ok(ObsRow {
            epoch: fields[0].parse().map_err(|e| format!("field 0 `{}`: {e}", fields[0]))?,
            search_success_single: f(1)?,
            search_success_dual: f(2)?,
            frac_red_s0: f(3)?,
            captured_groups: u(4)?,
            total_groups: u(5)?,
            bad_ids: u(6)?,
            bad_share: f(7)?,
            mean_memberships: f(8)?,
            minted_good: f(9)?,
            good_misses: f(10)?,
            late: fields[11].parse().map_err(|e| format!("field 11 `{}`: {e}", fields[11]))?,
        })
    }
}

/// Driver-owned SoA columns over a batched run: one entry per stepped
/// epoch, read back as plain slices. [`EpochDriver::run`] clears and
/// refills the same batch (capacity is retained), so sweeping thousands
/// of cells re-allocates nothing once the columns have grown to the
/// epoch count.
#[derive(Clone, Debug, Default)]
pub struct ObservationBatch {
    epoch: Vec<u64>,
    search_success_single: Vec<f64>,
    search_success_dual: Vec<f64>,
    frac_red_s0: Vec<f64>,
    captured_groups: Vec<u32>,
    total_groups: Vec<u32>,
    bad_ids: Vec<u32>,
    bad_share: Vec<f64>,
    mean_memberships: Vec<f64>,
    minted_good: Vec<f64>,
    good_misses: Vec<f64>,
    late: Vec<u64>,
}

impl ObservationBatch {
    /// An empty batch.
    pub fn new() -> ObservationBatch {
        ObservationBatch::default()
    }

    /// Number of recorded epochs.
    pub fn len(&self) -> usize {
        self.epoch.len()
    }

    /// Whether no epochs are recorded.
    pub fn is_empty(&self) -> bool {
        self.epoch.is_empty()
    }

    /// Drop the rows, keep the column capacity.
    pub fn clear(&mut self) {
        self.epoch.clear();
        self.search_success_single.clear();
        self.search_success_dual.clear();
        self.frac_red_s0.clear();
        self.captured_groups.clear();
        self.total_groups.clear();
        self.bad_ids.clear();
        self.bad_share.clear();
        self.mean_memberships.clear();
        self.minted_good.clear();
        self.good_misses.clear();
        self.late.clear();
    }

    /// Append one epoch's row.
    pub fn push(&mut self, r: ObsRow) {
        self.epoch.push(r.epoch);
        self.search_success_single.push(r.search_success_single);
        self.search_success_dual.push(r.search_success_dual);
        self.frac_red_s0.push(r.frac_red_s0);
        self.captured_groups.push(r.captured_groups);
        self.total_groups.push(r.total_groups);
        self.bad_ids.push(r.bad_ids);
        self.bad_share.push(r.bad_share);
        self.mean_memberships.push(r.mean_memberships);
        self.minted_good.push(r.minted_good);
        self.good_misses.push(r.good_misses);
        self.late.push(r.late);
    }

    /// Epoch indices.
    pub fn epochs(&self) -> &[u64] {
        &self.epoch
    }

    /// Single-side search success per epoch.
    pub fn search_success_single(&self) -> &[f64] {
        &self.search_success_single
    }

    /// Dual-side search success per epoch.
    pub fn search_success_dual(&self) -> &[f64] {
        &self.search_success_dual
    }

    /// Side-0 red fraction per epoch.
    pub fn frac_red_s0(&self) -> &[f64] {
        &self.frac_red_s0
    }

    /// Captured-group counts per epoch (all sides).
    pub fn captured_groups(&self) -> &[u32] {
        &self.captured_groups
    }

    /// Total group counts per epoch (all sides).
    pub fn total_groups(&self) -> &[u32] {
        &self.total_groups
    }

    /// Adversarial IDs entering the dynamic layer per epoch.
    pub fn bad_ids(&self) -> &[u32] {
        &self.bad_ids
    }

    /// Adversarial key-space share per epoch.
    pub fn bad_share(&self) -> &[f64] {
        &self.bad_share
    }

    /// Mean per-good-pool-ID memberships per epoch.
    pub fn mean_memberships(&self) -> &[f64] {
        &self.mean_memberships
    }

    /// Good IDs minted per epoch (`NAN` without a PoW layer).
    pub fn minted_good(&self) -> &[f64] {
        &self.minted_good
    }

    /// Good minting-window misses per epoch (`NAN` outside the PoW
    /// statistical pipeline).
    pub fn good_misses(&self) -> &[f64] {
        &self.good_misses
    }

    /// Late-window messages per epoch (`0` outside the actor runtime).
    pub fn late(&self) -> &[u64] {
        &self.late
    }

    /// Re-extract row `i` (the inverse of [`ObservationBatch::push`]),
    /// used to encode a finished batch into store records.
    pub fn row_at(&self, i: usize) -> ObsRow {
        ObsRow {
            epoch: self.epoch[i],
            search_success_single: self.search_success_single[i],
            search_success_dual: self.search_success_dual[i],
            frac_red_s0: self.frac_red_s0[i],
            captured_groups: self.captured_groups[i],
            total_groups: self.total_groups[i],
            bad_ids: self.bad_ids[i],
            bad_share: self.bad_share[i],
            mean_memberships: self.mean_memberships[i],
            minted_good: self.minted_good[i],
            good_misses: self.good_misses[i],
            late: self.late[i],
        }
    }

    /// Captured fraction at epoch `i`.
    pub fn captured_frac_at(&self, i: usize) -> f64 {
        self.captured_groups[i] as f64 / self.total_groups[i].max(1) as f64
    }

    fn mean(col: &[f64]) -> f64 {
        col.iter().sum::<f64>() / col.len().max(1) as f64
    }

    /// Mean captured-group fraction over the batch.
    pub fn mean_captured_frac(&self) -> f64 {
        (0..self.len()).map(|i| self.captured_frac_at(i)).sum::<f64>() / self.len().max(1) as f64
    }

    /// Mean adversarial IDs per epoch.
    pub fn mean_bad_ids(&self) -> f64 {
        self.bad_ids.iter().map(|&b| b as f64).sum::<f64>() / self.len().max(1) as f64
    }

    /// Mean adversarial key-space share.
    pub fn mean_bad_share(&self) -> f64 {
        Self::mean(&self.bad_share)
    }

    /// Mean side-0 red fraction.
    pub fn mean_frac_red_s0(&self) -> f64 {
        Self::mean(&self.frac_red_s0)
    }

    /// Mean dual-search success.
    pub fn mean_success_dual(&self) -> f64 {
        Self::mean(&self.search_success_dual)
    }

    /// Mean late-window messages per epoch.
    pub fn mean_late(&self) -> f64 {
        self.late.iter().map(|&l| l as f64).sum::<f64>() / self.len().max(1) as f64
    }
}

/// The one verb every simulated system understands: advance one epoch,
/// observe it. `ScenarioSpec::build` (or `tg_pow::scenario::build`)
/// erases which concrete system sits behind the trait.
pub trait EpochDriver {
    /// Advance one epoch. The returned observation borrows the driver's
    /// reusable buffer and is valid until the next call.
    fn step(&mut self) -> &EpochObservation;

    /// The last observation (all-zero before the first
    /// [`EpochDriver::step`]).
    fn observation(&self) -> &EpochObservation;

    /// The operational group graphs (for measurements the observation
    /// does not pre-aggregate, e.g. victim-arc probes).
    fn graphs(&self) -> GraphsView<'_>;

    /// The epoch the operational graphs serve.
    fn epoch(&self) -> u64;

    /// The driver-owned columnar record of the last [`EpochDriver::run`]
    /// (empty before the first batched run).
    fn batch(&self) -> &ObservationBatch;

    /// Mutable access to the batch columns (how the provided
    /// [`EpochDriver::run`] fills them).
    fn batch_mut(&mut self) -> &mut ObservationBatch;

    /// Advance `epochs` epochs, appending one [`ObsRow`] per epoch to
    /// the driver-owned [`ObservationBatch`], and return it — the
    /// batched sweep-loop entry point. Columns are cleared first but
    /// keep their capacity, so repeated runs re-allocate nothing.
    fn run(&mut self, epochs: usize) -> &ObservationBatch {
        self.batch_mut().clear();
        for _ in 0..epochs {
            self.step();
            let row = ObsRow::of(self.observation());
            self.batch_mut().push(row);
        }
        self.batch()
    }
}

/// Records each epoch's adversary census on the way into the dynamic
/// layer (the system consumes the IDs, so they are measured in
/// transit). No RNG is drawn, so wrapping changes no byte of any run.
pub(crate) struct RecordingProvider {
    pub(crate) inner: Box<dyn IdentityProvider>,
    pub(crate) last_bad: usize,
    pub(crate) last_share: f64,
}

impl IdentityProvider for RecordingProvider {
    fn ids_for_epoch(
        &mut self,
        epoch: u64,
        view: &crate::dynamic::adversary::AdversaryView<'_>,
        rng: &mut StdRng,
    ) -> crate::dynamic::provider::EpochIds {
        let ids = self.inner.ids_for_epoch(epoch, view, rng);
        self.last_bad = ids.bad.len();
        self.last_share = ids.bad_ring_share();
        ids
    }
}

/// The [`EpochDriver`] over the §III dynamic layer alone
/// ([`Defense::NoPow`]).
pub struct DynamicDriver {
    sys: DynamicSystem,
    provider: RecordingProvider,
    obs: EpochObservation,
    batch: ObservationBatch,
}

impl DynamicDriver {
    /// Build the driver for `spec` around an explicit identity provider
    /// (how `tg_pow::scenario` composes minting providers with this
    /// driver; core-only callers should use [`ScenarioSpec::build`]).
    pub fn with_provider(spec: &ScenarioSpec, inner: Box<dyn IdentityProvider>) -> DynamicDriver {
        let mut provider = RecordingProvider { inner, last_bad: 0, last_share: 0.0 };
        let mut sys = DynamicSystem::new(
            spec.params,
            spec.kind,
            spec.mode,
            &mut provider,
            spec.seed,
            spec.capacity,
        );
        sys.searches_per_epoch = spec.searches;
        DynamicDriver {
            sys,
            provider,
            obs: EpochObservation::default(),
            batch: ObservationBatch::new(),
        }
    }
}

impl EpochDriver for DynamicDriver {
    fn step(&mut self) -> &EpochObservation {
        let r = self.sys.advance_epoch(&mut self.provider);
        self.obs.fill_dynamic(&r, self.sys.graphs.view());
        self.obs.bad_ids = self.provider.last_bad;
        self.obs.bad_share = self.provider.last_share;
        &self.obs
    }

    fn observation(&self) -> &EpochObservation {
        &self.obs
    }

    fn graphs(&self) -> GraphsView<'_> {
        self.sys.graphs.view()
    }

    fn epoch(&self) -> u64 {
        self.sys.epoch
    }

    fn batch(&self) -> &ObservationBatch {
        &self.batch
    }

    fn batch_mut(&mut self) -> &mut ObservationBatch {
        &mut self.batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::provider::UniformProvider;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new(380, 7).churn(0.1).attack_requests(1).searches(200)
    }

    #[test]
    fn label_round_trips() {
        let specs = [
            spec(),
            spec()
                .beta(0.12)
                .group_factor(6.0)
                .topology(GraphKind::D2B)
                .build_mode(BuildMode::SingleGraph)
                .strategy(StrategySpec::ChurnTimed { trigger: 0.12, retainer: 0.2 }),
            spec()
                .defense(Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: false })
                .strings(StringMode::Synthesized)
                .strategy(StrategySpec::PrecomputeHoarder { fam_seed: 99, attempts: 2000 }),
            spec().capacity(1 << 16),
        ];
        for s in specs {
            let label = s.label();
            assert_eq!(ScenarioSpec::parse(&label).unwrap(), s, "label: {label}");
            let json = s.to_json();
            assert_eq!(ScenarioSpec::from_json(&json).unwrap(), s, "json: {json}");
        }
    }

    #[test]
    fn parse_rejects_malformed_labels() {
        for bad in [
            "",
            "tg0;n=1",
            "tg1;n=1",                              // missing fields
            &format!("{};extra=1", spec().label()), // unknown field
            &format!("{};n=380", spec().label()),   // duplicate field
            &spec().label().replace("kind=chord", "kind=moebius"),
            &spec().label().replace("strategy=honest", "strategy=quantum"),
            &format!("{};kernel=ring", spec().label()), // bad kernel token
            &format!("{};cap=big", spec().label()),     // bad capacity
            &format!("{};kernel=arena;kernel=arena", spec().label()), // dup optional
        ] {
            assert!(ScenarioSpec::parse(bad).is_err(), "must reject: {bad}");
        }
        assert!(ScenarioSpec::from_json("{}").is_err());
        assert!(ScenarioSpec::from_json("not json").is_err());
    }

    #[test]
    fn core_build_rejects_pow_specs() {
        let pow = spec().defense(Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true });
        assert!(matches!(pow.build(), Err(ScenarioError::NeedsPowLayer(_))));
        let hoarder =
            spec().strategy(StrategySpec::PrecomputeHoarder { fam_seed: 1, attempts: 10 });
        assert!(matches!(hoarder.build(), Err(ScenarioError::NeedsPowLayer(_))));
    }

    /// The conformance contract at the core layer: a spec-built driver
    /// reproduces a hand-constructed `DynamicSystem` run byte-for-byte,
    /// honest and strategic alike.
    #[test]
    fn driver_matches_direct_dynamic_system() {
        for strategy in [StrategySpec::Honest, StrategySpec::GapFilling] {
            let s = spec().strategy(strategy);
            let mut driver = s.build().unwrap();

            let mut direct: Box<dyn IdentityProvider> = match strategy {
                StrategySpec::Honest => {
                    Box::new(UniformProvider { n_good: s.n_good, n_bad: s.n_bad })
                }
                _ => Box::new(StrategicProvider::boxed(
                    s.n_good,
                    s.n_bad,
                    strategy.build_strategy().unwrap(),
                )),
            };
            let mut sys = DynamicSystem::new(s.params, s.kind, s.mode, &mut *direct, s.seed, None);
            sys.searches_per_epoch = s.searches;

            for _ in 0..3 {
                let r = sys.advance_epoch(&mut *direct);
                let o = driver.step();
                assert_eq!(o.epoch, r.epoch);
                assert_eq!(o.frac_red, r.frac_red);
                assert_eq!(o.search_success_single, r.search_success_single);
                assert_eq!(o.search_success_dual, r.search_success_dual);
                assert_eq!(o.build.captured_slots, r.build.captured_slots);
                assert_eq!(o.mean_memberships, r.mean_memberships);
                assert_eq!(o.metrics, r.metrics);
                assert!(o.epoch_string.is_none() && o.minted_good.is_none());
            }
            assert_eq!(driver.epoch(), sys.epoch);
            assert_eq!(driver.graphs().sides(), sys.graphs.sides());
        }
    }

    /// `run(n)` is `n` steps recorded into one driver-owned columnar
    /// batch: per-epoch rows match step-by-step observations, and the
    /// column storage is reused (not re-grown) across batched runs.
    #[test]
    fn batched_run_fills_columns_and_reuses_buffers() {
        let s = spec();
        let mut stepped = s.build().unwrap();
        let mut rows = Vec::new();
        for _ in 0..3 {
            rows.push(ObsRow::of(stepped.step()));
        }

        let mut batched = s.build().unwrap();
        let b = batched.run(3);
        assert_eq!(b.len(), 3);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(b.epochs()[i], row.epoch);
            assert_eq!(b.frac_red_s0()[i], row.frac_red_s0);
            assert_eq!(b.search_success_dual()[i], row.search_success_dual);
            assert_eq!(b.captured_groups()[i], row.captured_groups);
            assert_eq!(b.bad_ids()[i], row.bad_ids);
            assert_eq!(b.mean_memberships()[i], row.mean_memberships);
            assert!(b.minted_good()[i].is_nan(), "no PoW layer: minted column is NAN");
        }
        let first_ptr = b.frac_red_s0().as_ptr();
        let b = batched.run(2);
        assert_eq!(b.len(), 2, "run clears the previous batch");
        assert_eq!(b.frac_red_s0().as_ptr(), first_ptr, "columns are reused, not re-grown");
    }

    #[test]
    fn budget_matches_sweep_convention() {
        assert_eq!(budget_for(0.05, 380), 20);
        assert_eq!(budget_for(0.06, 1200), 77);
        assert_eq!(budget_for(0.05, 2000), 105);
    }
}
