//! The **actor epoch runtime**: per-node message passing over an
//! injectable transport.
//!
//! The synchronous drivers advance an epoch as one in-process step — the
//! right fast path for the paper's synchronous-rounds model, but silent
//! about everything the model assumes away: delivery timing, loss, and
//! partitions. This module splits the epoch into protocol *phases* whose
//! participants are per-node actors exchanging typed [`ProtocolMsg`]s
//! over a [`Transport`] (`tg_sim::net`), so a scenario can run against
//! an imperfect network:
//!
//! * **String dissemination** — the freshly agreed epoch string is
//!   broadcast to every node; nodes the broadcast misses cannot verify
//!   peers, scaling the PoW pipeline's `verification_coverage`.
//! * **Membership announcement** — every good identity announces itself
//!   as a [`ProtocolMsg::Join`] from its home node to the aggregator;
//!   announcements the network loses never enter the epoch's ring. The
//!   adversary is modelled as a *network insider*: its identities bypass
//!   the transport entirely (the worst case — faults only ever weaken
//!   the good population, so capture grows with the fault rates).
//! * **Routing probes** — each robustness search issues a two-hop probe
//!   chain (source → relay → aggregator); the measured search success is
//!   scaled by the fraction of probe chains the network completes.
//!
//! ## Equivalence with the synchronous drivers
//!
//! Over a *perfect* transport (zero latency, lossless, never
//! partitioned) every phase delivers all messages in send order, all
//! delivered fractions are exactly `1.0`, and no observation field is
//! rescaled — the actor runtime reproduces the synchronous drivers'
//! [`EpochObservation`]s **byte-identically** (the conformance suite and
//! the golden replays pin this). The transport draws no RNG, so the
//! epoch kernel's seeded streams are untouched whatever the fault plan; see
//! `tg_sim::net` for the determinism contract.
//!
//! ## Transports and phase windows
//!
//! The network itself is injectable: `transport=mem` (default) runs the
//! deterministic in-memory transport, `transport=socket` the real
//! localhost-TCP [`SocketTransport`].
//! Both apply the identical hash-derived fault fates, so the choice is
//! about *how bytes move*, never about what is observed.
//!
//! Each phase hands the transport a tick deadline sized by an adaptive
//! [`PhaseWindow`]: it starts at [`PHASE_WINDOW`]
//! ticks and tracks the observed per-phase delivery latency up to
//! [`MAX_PHASE_WINDOW`], with zero latency as a fixpoint — which is why
//! perfect-transport replays (mem or socket) stay byte-identical to the
//! fixed-window goldens. A spec-level `window=` knob pins the deadline
//! for sweeps.
//!
//! Select the runtime with [`RuntimeChoice`] on a
//! [`ScenarioSpec`] (`runtime=actor` in
//! the codec, emitted only when non-default) and the fault knobs with
//! [`FaultPlan`](tg_sim::net::FaultPlan) (`drop=`, `lat=`, `part=`).

use crate::dynamic::adversary::AdversaryView;
use crate::dynamic::provider::{EpochIds, IdentityProvider};
use crate::dynamic::DynamicSystem;
use crate::graph::GraphsView;
use crate::scenario::{EpochDriver, EpochObservation, ObservationBatch, ScenarioSpec};
use rand::rngs::StdRng;
use tg_sim::clock::PhaseWindow;
use tg_sim::net::{
    InMemoryTransport, NetStats, NodeId, SocketTransport, Transport, TransportChoice, Wire,
};

/// Which execution model advances a scenario's epochs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RuntimeChoice {
    /// One synchronous in-process step per epoch — the deterministic
    /// fast path and conformance oracle.
    #[default]
    Sync,
    /// Per-node actors exchanging [`ProtocolMsg`]s over an injectable
    /// [`Transport`] with seeded fault injection.
    Actor,
}

impl RuntimeChoice {
    /// Stable codec token (`sync` / `actor`).
    pub fn label(self) -> &'static str {
        match self {
            RuntimeChoice::Sync => "sync",
            RuntimeChoice::Actor => "actor",
        }
    }

    /// Parse a codec token.
    pub fn parse(s: &str) -> Option<RuntimeChoice> {
        match s {
            "sync" => Some(RuntimeChoice::Sync),
            "actor" => Some(RuntimeChoice::Actor),
            _ => None,
        }
    }
}

/// The typed protocol messages the per-node actors exchange.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolMsg {
    /// A good identity announcing itself for the next epoch's ring.
    Join {
        /// The announced ring position (raw fixed-point).
        id: u64,
    },
    /// One hop of a two-hop routing probe chain.
    Probe {
        /// Which robustness search this chain belongs to.
        search: u32,
        /// Hop index: `0` source → relay, `1` relay → aggregator.
        hop: u8,
    },
    /// The freshly agreed epoch string, broadcast to every node.
    StringAnnounce {
        /// The string value minting will bind to.
        key: u64,
    },
}

/// Round-trip byte codec for the wire: a one-byte variant tag followed
/// by the variant's fields, little-endian, fixed width. `decode`
/// demands the exact length — a truncated or padded frame is malformed
/// and degrades to a transport drop.
impl Wire for ProtocolMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match *self {
            ProtocolMsg::Join { id } => {
                buf.push(0);
                buf.extend_from_slice(&id.to_le_bytes());
            }
            ProtocolMsg::Probe { search, hop } => {
                buf.push(1);
                buf.extend_from_slice(&search.to_le_bytes());
                buf.push(hop);
            }
            ProtocolMsg::StringAnnounce { key } => {
                buf.push(2);
                buf.extend_from_slice(&key.to_le_bytes());
            }
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        match bytes.split_first()? {
            (0, rest) if rest.len() == 8 => {
                Some(ProtocolMsg::Join { id: u64::from_le_bytes(rest.try_into().ok()?) })
            }
            (1, rest) if rest.len() == 5 => Some(ProtocolMsg::Probe {
                search: u32::from_le_bytes(rest[..4].try_into().ok()?),
                hop: rest[4],
            }),
            (2, rest) if rest.len() == 8 => {
                Some(ProtocolMsg::StringAnnounce { key: u64::from_le_bytes(rest.try_into().ok()?) })
            }
            _ => None,
        }
    }
}

/// Virtual network size: protocol participants are mapped onto this
/// many nodes (node `0` doubles as the aggregator/observer).
pub const NET_NODES: u64 = 64;
/// Base (and zero-latency fixpoint) of the adaptive phase window: the
/// ticks spanned by one phase's initial sends on a quiet network. Fault
/// windows (e.g.
/// [`FaultPlan::partition_ticks`](tg_sim::net::FaultPlan::partition_ticks)) are expressed in the same unit.
pub const PHASE_WINDOW: u64 = 64;
/// Ceiling of the adaptive phase window: under heavy observed latency
/// the deadline stretches, but never beyond this.
pub const MAX_PHASE_WINDOW: u64 = 4096;

const AGGREGATOR: NodeId = 0;
const PHASE_STRINGS: u64 = 0;
const PHASE_ANNOUNCE: u64 = 1;
const PHASE_PROBE: u64 = 2;

/// The home node of a ring identity.
fn node_of_id(raw: u64) -> NodeId {
    1 + raw % (NET_NODES - 1)
}

/// Send tick of the `i`-th of `m` initial sends: spread monotonically
/// over the first `window` ticks of the phase (order-preserving under a
/// perfect transport).
fn spread_tick(i: u64, m: u64, window: u64) -> u64 {
    (i * window).checked_div(m).unwrap_or(0)
}

/// One scenario's network: the transport plus the per-phase actor
/// protocols that run over it, under a latency-adaptive
/// [`PhaseWindow`].
pub struct EpochNet {
    transport: Box<dyn Transport<ProtocolMsg>>,
    window: PhaseWindow,
}

impl EpochNet {
    /// A network over the given transport with the default adaptive
    /// window ([`PHASE_WINDOW`]..=[`MAX_PHASE_WINDOW`]).
    pub fn new(transport: Box<dyn Transport<ProtocolMsg>>) -> EpochNet {
        EpochNet::with_window(transport, PhaseWindow::adaptive(PHASE_WINDOW, MAX_PHASE_WINDOW))
    }

    /// A network over the given transport and an explicit phase window.
    pub fn with_window(
        transport: Box<dyn Transport<ProtocolMsg>>,
        window: PhaseWindow,
    ) -> EpochNet {
        EpochNet { transport, window }
    }

    /// The network a spec asks for: the spec's transport choice and
    /// fault plan, faults seeded from the spec's master seed (via its
    /// own labelled derivation — kernel streams are untouched), and the
    /// spec's `window=` pin if set.
    ///
    /// # Panics
    /// Panics if `transport=socket` cannot establish its loopback lanes
    /// (no further degradation is possible before a socket exists).
    pub fn for_spec(spec: &ScenarioSpec) -> EpochNet {
        let transport: Box<dyn Transport<ProtocolMsg>> = match spec.transport {
            TransportChoice::Mem => Box::new(InMemoryTransport::new(spec.faults, spec.seed)),
            TransportChoice::Socket => {
                Box::new(SocketTransport::connect(spec.faults, spec.seed).unwrap_or_else(|e| {
                    panic!("transport=socket: cannot establish loopback lanes: {e}")
                }))
            }
        };
        let window = match spec.window {
            Some(ticks) => PhaseWindow::pinned(ticks),
            None => PhaseWindow::adaptive(PHASE_WINDOW, MAX_PHASE_WINDOW),
        };
        EpochNet::with_window(transport, window)
    }

    /// Lifetime delivery counters of the underlying transport.
    pub fn stats(&self) -> NetStats {
        self.transport.stats()
    }

    /// The phase window currently in force.
    pub fn window(&self) -> &PhaseWindow {
        &self.window
    }

    /// Feed one finished phase's delivery observation (the counter
    /// delta since `before`) back into the adaptive window.
    fn observe_phase(&mut self, before: NetStats) {
        let after = self.transport.stats();
        self.window.observe(after.delivered - before.delivered, after.lat_ticks - before.lat_ticks);
    }

    /// **Membership announcement phase.** Every good ID in `ids` sends a
    /// [`ProtocolMsg::Join`] from its home node to the aggregator;
    /// `ids.good` is replaced by the announcements that arrived, in
    /// delivery order. Bad IDs bypass the network (insider adversary).
    ///
    /// Under a perfect transport delivery order equals send order, so
    /// `ids` comes back bit-identical.
    pub fn announce_phase(&mut self, epoch: u64, ids: &mut EpochIds) {
        let w = self.window.current();
        let before = self.transport.stats();
        self.transport.begin_phase(epoch, PHASE_ANNOUNCE, w);
        let m = ids.good.len() as u64;
        for (i, id) in ids.good.iter().enumerate() {
            let raw = id.raw();
            self.transport.send(
                node_of_id(raw),
                AGGREGATOR,
                spread_tick(i as u64, m, w),
                ProtocolMsg::Join { id: raw },
            );
        }
        let mut delivered = Vec::with_capacity(ids.good.len());
        while let Some(env) = self.transport.recv() {
            if let ProtocolMsg::Join { id } = env.msg {
                delivered.push(tg_idspace::Id(id));
            }
        }
        ids.good = delivered;
        self.observe_phase(before);
    }

    /// **Routing probe phase.** Each of `searches` probes runs a two-hop
    /// actor chain (source → relay, relay forwards to the aggregator at
    /// its delivery tick). Returns the fraction of chains that
    /// completed — the factor search success is scaled by. Exactly `1.0`
    /// under a perfect transport (or when `searches == 0`).
    pub fn probe_phase(&mut self, epoch: u64, searches: usize) -> f64 {
        if searches == 0 {
            return 1.0;
        }
        let w = self.window.current();
        let before = self.transport.stats();
        self.transport.begin_phase(epoch, PHASE_PROBE, w);
        let m = searches as u64;
        for s in 0..m {
            let src = 1 + s % (NET_NODES - 1);
            let relay = 1 + (s + NET_NODES / 2) % (NET_NODES - 1);
            self.transport.send(
                src,
                relay,
                spread_tick(s, m, w),
                ProtocolMsg::Probe { search: s as u32, hop: 0 },
            );
        }
        let mut completed = 0u64;
        while let Some(env) = self.transport.recv() {
            match env.msg {
                ProtocolMsg::Probe { search, hop: 0 } => {
                    // The relay actor forwards at its delivery tick.
                    self.transport.send(
                        env.dst,
                        AGGREGATOR,
                        env.deliver_tick,
                        ProtocolMsg::Probe { search, hop: 1 },
                    );
                }
                ProtocolMsg::Probe { hop: 1, .. } => completed += 1,
                _ => {}
            }
        }
        self.observe_phase(before);
        completed as f64 / searches as f64
    }

    /// **String dissemination phase.** The aggregator broadcasts the
    /// agreed epoch string to every other node; returns the fraction of
    /// nodes reached. Exactly `1.0` under a perfect transport.
    pub fn string_phase(&mut self, epoch: u64, key: u64) -> f64 {
        let w = self.window.current();
        let before = self.transport.stats();
        self.transport.begin_phase(epoch, PHASE_STRINGS, w);
        let m = NET_NODES - 1;
        for (i, node) in (1..NET_NODES).enumerate() {
            self.transport.send(
                AGGREGATOR,
                node,
                spread_tick(i as u64, m, w),
                ProtocolMsg::StringAnnounce { key },
            );
        }
        let mut reached = 0u64;
        while let Some(env) = self.transport.recv() {
            if matches!(env.msg, ProtocolMsg::StringAnnounce { .. }) {
                reached += 1;
            }
        }
        self.observe_phase(before);
        reached as f64 / m as f64
    }
}

/// An [`IdentityProvider`] that runs the inner provider's good IDs
/// through the network's announcement phase. Composable anywhere in a
/// provider chain (`tg-pow` inserts it inside its counting wrapper so
/// minted counts reflect what the network delivered).
pub struct NetFilter<'a> {
    /// The provider whose announcements go over the network.
    pub inner: &'a mut dyn IdentityProvider,
    /// The scenario's network.
    pub net: &'a mut EpochNet,
}

impl IdentityProvider for NetFilter<'_> {
    fn ids_for_epoch(
        &mut self,
        epoch: u64,
        view: &AdversaryView<'_>,
        rng: &mut StdRng,
    ) -> EpochIds {
        let mut ids = self.inner.ids_for_epoch(epoch, view, rng);
        self.net.announce_phase(epoch, &mut ids);
        ids
    }
}

/// The [`EpochDriver`] running [`crate::scenario::Defense::NoPow`]
/// scenarios through the actor runtime: the same [`DynamicSystem`] as
/// [`crate::scenario::DynamicDriver`], with the membership and probe
/// phases routed over the scenario's network.
///
/// The genesis build is trusted bootstrap (not filtered) — the network
/// exists from the first *advanced* epoch on, mirroring the paper's
/// assumption of a correct initial configuration.
pub struct ActorDriver {
    sys: DynamicSystem,
    provider: crate::scenario::RecordingProvider,
    net: EpochNet,
    searches: usize,
    obs: EpochObservation,
    batch: ObservationBatch,
}

impl ActorDriver {
    /// Build the driver for `spec` around an explicit identity provider
    /// (the actor-runtime counterpart of `DynamicDriver::with_provider`).
    pub fn with_provider(spec: &ScenarioSpec, inner: Box<dyn IdentityProvider>) -> ActorDriver {
        let mut provider =
            crate::scenario::RecordingProvider { inner, last_bad: 0, last_share: 0.0 };
        let mut sys = DynamicSystem::new(
            spec.params,
            spec.kind,
            spec.mode,
            &mut provider,
            spec.seed,
            spec.capacity,
        );
        sys.searches_per_epoch = spec.searches;
        ActorDriver {
            sys,
            provider,
            net: EpochNet::for_spec(spec),
            searches: spec.searches,
            obs: EpochObservation::default(),
            batch: ObservationBatch::new(),
        }
    }
}

impl EpochDriver for ActorDriver {
    fn step(&mut self) -> &EpochObservation {
        let late_before = self.net.stats().late;
        let mut r = {
            let mut filtered = NetFilter { inner: &mut self.provider, net: &mut self.net };
            self.sys.advance_epoch(&mut filtered)
        };
        // Probe phase: scale measured search success by the fraction of
        // probe chains the network completed. The `< 1.0` guard keeps
        // the perfect-transport path bit-exact.
        let f = self.net.probe_phase(r.epoch, self.searches);
        if f < 1.0 {
            r.search_success_single *= f;
            r.search_success_dual *= f;
        }
        self.obs.fill_dynamic(&r, self.sys.graphs.view());
        self.obs.bad_ids = self.provider.last_bad;
        self.obs.bad_share = self.provider.last_share;
        // The epoch's late-window message count (`NetStats.late` is
        // cumulative over the transport's lifetime). Zero over a
        // perfect transport, so the sync-equivalence contract holds.
        self.obs.late = self.net.stats().late - late_before;
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
    use crate::scenario::StrategySpec;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new(240, 42)
            .beta(0.1)
            .churn(0.15)
            .searches(60)
            .strategy(StrategySpec::GapFilling)
    }

    #[test]
    fn runtime_choice_round_trips() {
        for rt in [RuntimeChoice::Sync, RuntimeChoice::Actor] {
            assert_eq!(RuntimeChoice::parse(rt.label()), Some(rt));
        }
        assert_eq!(RuntimeChoice::parse("async"), None);
        assert_eq!(RuntimeChoice::default(), RuntimeChoice::Sync);
    }

    #[test]
    fn actor_over_perfect_transport_matches_sync_driver() {
        let s = spec();
        let mut sync = s.build().expect("sync driver");
        let mut actor = s.clone().runtime(RuntimeChoice::Actor).build().expect("actor driver");
        for _ in 0..3 {
            let a = format!("{:?}", sync.step());
            let b = format!("{:?}", actor.step());
            assert_eq!(a, b, "perfect transport reproduces the sync observation");
        }
    }

    #[test]
    fn drops_lose_announcements_and_probes() {
        let s = spec().runtime(RuntimeChoice::Actor).drop_rate(0.5);
        let mut lossy = s.build().expect("lossy driver");
        let mut perfect = spec().build().expect("sync driver");
        let (mut lost_any, mut scaled_any) = (false, false);
        for _ in 0..4 {
            let (l_groups, l_success) = {
                let o = lossy.step();
                (o.total_groups, o.search_success_dual)
            };
            let p = perfect.step();
            if l_groups < p.total_groups {
                lost_any = true;
            }
            if l_success < p.search_success_dual {
                scaled_any = true;
            }
        }
        assert!(lost_any, "drop rate 0.5 loses some good announcements");
        assert!(scaled_any, "drop rate 0.5 fails some probe chains");
    }

    #[test]
    fn partition_cuts_cross_traffic() {
        let s = spec().runtime(RuntimeChoice::Actor).partition(PHASE_WINDOW);
        let mut d = s.build().expect("partitioned driver");
        d.step();
        // Can't reach the transport through the trait object; observable
        // effect: success scaled below the sync value.
        let mut sync = spec().build().expect("sync driver");
        let s0 = sync.step().search_success_dual;
        assert!(d.observation().search_success_dual < s0);
    }

    #[test]
    fn announce_phase_is_identity_under_perfect_transport() {
        let mut net = EpochNet::new(Box::new(InMemoryTransport::perfect(1)));
        let mut ids = EpochIds {
            good: (0..50u64)
                .map(|i| tg_idspace::Id(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                .collect(),
            bad: vec![tg_idspace::Id(3)],
        };
        let before = ids.good.clone();
        net.announce_phase(7, &mut ids);
        assert_eq!(ids.good, before);
        assert_eq!(ids.bad.len(), 1, "bad IDs bypass the network");
    }

    #[test]
    fn phases_report_perfect_fractions_on_perfect_transport() {
        let mut net = EpochNet::new(Box::new(InMemoryTransport::perfect(9)));
        assert_eq!(net.probe_phase(1, 33), 1.0);
        assert_eq!(net.string_phase(1, 0xABCD), 1.0);
        assert_eq!(net.probe_phase(2, 0), 1.0);
    }

    #[test]
    fn protocol_msg_wire_round_trips() {
        let msgs = [
            ProtocolMsg::Join { id: u64::MAX },
            ProtocolMsg::Join { id: 0 },
            ProtocolMsg::Probe { search: 12345, hop: 0 },
            ProtocolMsg::Probe { search: u32::MAX, hop: 1 },
            ProtocolMsg::StringAnnounce { key: 0xDEAD_BEEF_CAFE_F00D },
        ];
        for m in msgs {
            let mut buf = Vec::new();
            m.encode(&mut buf);
            assert_eq!(ProtocolMsg::decode(&buf), Some(m));
        }
        // Malformed frames decode to None (degrading to a drop) rather
        // than panicking: wrong tag, truncation, trailing garbage.
        assert_eq!(ProtocolMsg::decode(&[]), None);
        assert_eq!(ProtocolMsg::decode(&[9, 0, 0, 0, 0, 0, 0, 0, 0]), None);
        assert_eq!(ProtocolMsg::decode(&[0, 1, 2]), None);
        let mut buf = Vec::new();
        ProtocolMsg::Join { id: 7 }.encode(&mut buf);
        buf.push(0);
        assert_eq!(ProtocolMsg::decode(&buf), None, "padded frame is malformed");
    }

    /// The adaptive window is a zero-latency fixpoint (golden-replay
    /// safety) and stretches under observed latency.
    #[test]
    fn phase_window_adapts_to_observed_latency() {
        let mut quiet = EpochNet::new(Box::new(InMemoryTransport::perfect(3)));
        quiet.string_phase(1, 1);
        quiet.probe_phase(1, 40);
        assert_eq!(quiet.window().current(), PHASE_WINDOW, "zero latency never moves the window");

        let plan = tg_sim::net::FaultPlan { latency_max: 24, ..Default::default() };
        let mut slow = EpochNet::new(Box::new(InMemoryTransport::new(plan, 3)));
        slow.string_phase(1, 1);
        let w = slow.window().current();
        assert!(w > PHASE_WINDOW, "observed latency stretches the deadline (got {w})");
        assert!(w <= MAX_PHASE_WINDOW);
    }

    /// `window=` pins the deadline: observations cannot move it.
    #[test]
    fn spec_window_knob_pins_the_deadline() {
        let s = spec().runtime(RuntimeChoice::Actor).latency(24).window(96);
        let mut net = EpochNet::for_spec(&s);
        assert!(net.window().is_pinned());
        net.string_phase(1, 1);
        net.probe_phase(1, 40);
        assert_eq!(net.window().current(), 96);
    }

    /// The socket transport slots in through `for_spec` and reproduces
    /// the in-memory phase fractions over a perfect loopback.
    #[test]
    fn for_spec_socket_matches_mem_phases() {
        let base = spec().runtime(RuntimeChoice::Actor);
        let mut mem = EpochNet::for_spec(&base);
        let mut sock =
            EpochNet::for_spec(&base.clone().transport(tg_sim::net::TransportChoice::Socket));
        let mut ids_m = EpochIds {
            good: (0..40u64).map(|i| tg_idspace::Id(i * 0x0101_0101)).collect(),
            bad: vec![],
        };
        let mut ids_s = EpochIds { good: ids_m.good.clone(), bad: vec![] };
        mem.announce_phase(2, &mut ids_m);
        sock.announce_phase(2, &mut ids_s);
        assert_eq!(ids_m.good, ids_s.good);
        assert_eq!(mem.probe_phase(2, 50), sock.probe_phase(2, 50));
        assert_eq!(mem.string_phase(2, 0xF00), sock.string_phase(2, 0xF00));
        assert_eq!(mem.stats(), sock.stats());
    }
}
