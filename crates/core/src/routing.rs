//! Secure search over the group graph (§II).
//!
//! A search proceeds along the `H`-route of its initiating leader with
//! the corresponding groups doing the work: each hop is an **all-to-all
//! exchange** between consecutive groups (`|G_i| · |G_{i+1}|` messages)
//! followed by majority filtering at the receiver. Two fidelity levels:
//!
//! * [`search_path`] — the §II-B *search-path* semantics: the search is
//!   truncated at the first red group and fails there; used by the
//!   large-scale robustness experiments. This is sound because a red
//!   group's output is adversary-controlled — counting it as failure is
//!   the worst case — and a blue group's output is correct.
//! * [`secure_route_verified`] — full message-level simulation with
//!   per-member claims and majority filtering, used to validate that the
//!   group-level semantics matches what the messages actually do, and to
//!   account messages exactly (E3).

use crate::graph::{GroupGraph, GroupGraphView};
use rand::rngs::StdRng;
use rand::Rng;
use tg_ba::{majority_filter, AdversaryMode};
use tg_idspace::Id;
use tg_sim::Metrics;

/// Outcome of a group-level search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchOutcome {
    /// The search traversed only blue groups and resolved.
    Success {
        /// Groups traversed (including initiator and resolver).
        hops: usize,
        /// All-to-all messages spent.
        msgs: u64,
    },
    /// The search hit a red group.
    Fail {
        /// Index into the route at which the red group was met.
        failed_at: usize,
        /// Groups traversed before truncation.
        hops: usize,
        /// Messages spent up to and including the failing edge.
        msgs: u64,
    },
}

impl SearchOutcome {
    /// Whether the search succeeded.
    pub fn is_success(&self) -> bool {
        matches!(self, SearchOutcome::Success { .. })
    }

    /// Messages spent.
    pub fn msgs(&self) -> u64 {
        match *self {
            SearchOutcome::Success { msgs, .. } | SearchOutcome::Fail { msgs, .. } => msgs,
        }
    }

    /// Groups traversed.
    pub fn hops(&self) -> usize {
        match *self {
            SearchOutcome::Success { hops, .. } | SearchOutcome::Fail { hops, .. } => hops,
        }
    }
}

/// Group-level search from the group of `from_leader` (a leader ring
/// index) for `key`. Updates `metrics`.
///
/// Generic over the graph's storage layout ([`GroupGraphView`]): the
/// static per-group graphs and the epoch kernel's SoA sides share this
/// one routine, so their search semantics cannot drift apart.
pub fn search_path<G: GroupGraphView>(
    gg: &G,
    from_leader: usize,
    key: Id,
    metrics: &mut Metrics,
) -> SearchOutcome {
    metrics.searches += 1;
    let from_id = gg.leaders().ring().at(from_leader);
    let route = gg.topology().route(from_id, key);
    let mut msgs = 0u64;
    let mut prev_size = 0usize;
    for (pos, &hop) in route.hops.iter().enumerate() {
        let gi = gg.leaders().ring().index_of(hop).expect("route hops are leader-ring IDs");
        let size = gg.group_size(gi);
        if pos > 0 {
            msgs += (prev_size * size) as u64;
        }
        if gg.is_red(gi) {
            metrics.failed_searches += 1;
            metrics.routing_msgs += msgs;
            metrics.hops += (pos + 1) as u64;
            return SearchOutcome::Fail { failed_at: pos, hops: pos + 1, msgs };
        }
        prev_size = size;
    }
    metrics.routing_msgs += msgs;
    metrics.hops += route.hops.len() as u64;
    SearchOutcome::Success { hops: route.hops.len(), msgs }
}

/// Dual search over the two group graphs of one epoch: succeeds if either
/// side's search path succeeds (the construction protocol performs both
/// and favors the true successor — with verifiable IDs, one honest result
/// suffices; §III-A "if different IDs are returned by the two searches,
/// the successor to `h1(w,i)` is selected").
pub fn dual_search<G: GroupGraphView>(
    sides: [&G; 2],
    from_leader: usize,
    key: Id,
    metrics: &mut Metrics,
) -> bool {
    let a = search_path(sides[0], from_leader, key, metrics);
    let b = search_path(sides[1], from_leader, key, metrics);
    a.is_success() || b.is_success()
}

/// Outcome of a message-level verified route.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifiedOutcome {
    /// The value a majority of the resolver group's good members hold
    /// (`None` if the resolver has no good members or they got nothing).
    pub delivered: Option<u64>,
    /// Whether the delivered value equals the payload.
    pub correct: bool,
    /// Messages exchanged.
    pub msgs: u64,
    /// Whether the group-level search-path prediction agrees with the
    /// message-level result (sound abstraction check: group-level success
    /// must imply message-level correctness).
    pub abstraction_sound: bool,
}

/// Message-level secure routing: carry `payload` from the group of
/// `from_leader` to the group responsible for `key`, with every member
/// claiming a value at each hop and receivers majority-filtering.
///
/// Byzantine members send per `mode`; the route itself follows `H` (the
/// adversary cannot rewire edges incident to blue groups, S3).
pub fn secure_route_verified(
    gg: &GroupGraph,
    from_leader: usize,
    key: Id,
    payload: u64,
    mode: AdversaryMode,
    metrics: &mut Metrics,
) -> VerifiedOutcome {
    let mut shadow = Metrics::new();
    let group_level = search_path(gg, from_leader, key, &mut shadow);

    let from_id = gg.leaders.ring().at(from_leader);
    let route = gg.topology.route(from_id, key);
    let ring = gg.leaders.ring();
    let mut msgs = 0u64;

    // The values held by the *live members* of the current group:
    // good members start with the payload in the initiating group.
    let first = ring.index_of(route.hops[0]).expect("initiator on ring");
    let mut holder_values: Vec<(bool, Option<u64>)> = member_values_init(gg, first, payload);

    for (pos, pair) in route.hops.windows(2).enumerate() {
        let to = ring.index_of(pair[1]).expect("route hops are leader IDs");
        let senders = holder_values.clone();
        let receivers = live_members(gg, to);
        let mut next_values: Vec<(bool, Option<u64>)> = Vec::with_capacity(receivers.len());
        for (ri, &(r_bad, _)) in receivers.iter().enumerate() {
            // Every sender transmits one claim to this receiver.
            let claims: Vec<Option<u64>> = senders
                .iter()
                .enumerate()
                .map(
                    |(si, &(s_bad, v))| {
                        if s_bad {
                            mode.send(si, ri + 1000 * pos, pos as u64, v)
                        } else {
                            v
                        }
                    },
                )
                .collect();
            msgs += claims.len() as u64;
            if r_bad {
                next_values.push((true, None)); // bad receivers hold whatever they like
            } else {
                let (winner, _) = majority_filter(&claims);
                next_values.push((false, winner));
            }
        }
        holder_values =
            next_values.iter().zip(receivers.iter()).map(|(&(b, v), _)| (b, v)).collect();
    }

    // What does the resolver group deliver? Majority over its good
    // members' held values.
    let good_values: Vec<Option<u64>> =
        holder_values.iter().filter(|&&(b, _)| !b).map(|&(_, v)| v).collect();
    let (delivered, _) = majority_filter(&good_values);
    let correct = delivered == Some(payload);

    // Soundness: group-level success must imply message-level success.
    let abstraction_sound = !group_level.is_success() || correct;

    metrics.routing_msgs += msgs;
    VerifiedOutcome { delivered, correct, msgs, abstraction_sound }
}

/// The live members of group `gi` as `(is_bad, _)` placeholders.
fn live_members(gg: &GroupGraph, gi: usize) -> Vec<(bool, ())> {
    let g = &gg.groups[gi];
    let mut out: Vec<(bool, ())> = g
        .members
        .iter()
        .filter(|&&m| gg.pool.is_live(m as usize))
        .map(|&m| (gg.pool.is_bad(m as usize), ()))
        .collect();
    for _ in 0..g.captured_slots {
        out.push((true, ()));
    }
    out
}

/// Initial holder values for the initiating group.
fn member_values_init(gg: &GroupGraph, gi: usize, payload: u64) -> Vec<(bool, Option<u64>)> {
    live_members(gg, gi)
        .into_iter()
        .map(|(bad, _)| if bad { (true, None) } else { (false, Some(payload)) })
        .collect()
}

/// Initiate a search from a random *blue* group for a random key;
/// convenience for robustness sampling. Returns `None` if the graph has
/// no blue group (fully compromised).
pub fn random_search(
    gg: &GroupGraph,
    rng: &mut StdRng,
    metrics: &mut Metrics,
) -> Option<SearchOutcome> {
    let from = rng.gen_range(0..gg.len());
    let key = Id(rng.gen());
    Some(search_path(gg, from, key, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_initial_graph;
    use crate::params::Params;
    use crate::population::Population;
    use rand::SeedableRng;
    use tg_crypto::OracleFamily;
    use tg_overlay::GraphKind;

    fn graph(n_good: usize, n_bad: usize, seed: u64) -> GroupGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = Population::uniform(n_good, n_bad, &mut rng);
        let fam = OracleFamily::new(seed);
        build_initial_graph(pop, GraphKind::Chord, fam.h1, &Params::paper_defaults())
    }

    #[test]
    fn all_good_searches_succeed() {
        let gg = graph(512, 0, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = Metrics::new();
        for _ in 0..100 {
            let out = random_search(&gg, &mut rng, &mut m).unwrap();
            assert!(out.is_success());
        }
        assert_eq!(m.failure_rate(), 0.0);
    }

    #[test]
    fn message_cost_is_hops_times_group_size_squared() {
        let gg = graph(512, 0, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut m = Metrics::new();
        let out = random_search(&gg, &mut rng, &mut m).unwrap();
        let (hops, msgs) = match out {
            SearchOutcome::Success { hops, msgs } => (hops, msgs),
            _ => panic!("must succeed with no adversary"),
        };
        let s = gg.mean_group_size();
        let predicted = (hops.saturating_sub(1)) as f64 * s * s;
        assert!(
            (msgs as f64) > 0.3 * predicted && (msgs as f64) < 3.0 * predicted,
            "msgs {msgs} vs predicted ~{predicted:.0}"
        );
    }

    #[test]
    fn red_initiator_fails_immediately() {
        let mut gg = graph(256, 0, 5);
        gg.confused[7] = true;
        gg.recolor();
        let mut m = Metrics::new();
        let out = search_path(&gg, 7, Id::from_f64(0.5), &mut m);
        match out {
            SearchOutcome::Fail { failed_at, hops, msgs } => {
                assert_eq!(failed_at, 0);
                assert_eq!(hops, 1);
                assert_eq!(msgs, 0, "no edge traversed before the initiator check");
            }
            _ => panic!("search from a red group must fail"),
        }
    }

    #[test]
    fn search_truncates_at_first_red_group() {
        let mut gg = graph(256, 0, 6);
        // Redden every group except the initiator: any nontrivial route
        // fails at its second hop.
        for i in 0..gg.len() {
            if i != 3 {
                gg.confused[i] = true;
            }
        }
        gg.recolor();
        let mut m = Metrics::new();
        let out = search_path(&gg, 3, Id::from_f64(0.777), &mut m);
        if let SearchOutcome::Fail { failed_at, .. } = out {
            assert_eq!(failed_at, 1, "first non-initiator hop is red");
        }
        // (If the key happens to resolve locally the search succeeds with
        // one hop — allowed.)
    }

    #[test]
    fn dual_search_beats_single() {
        // Side A red-initiator, side B clean: dual must succeed.
        let mut a = graph(256, 0, 7);
        for i in 0..a.len() {
            a.confused[i] = true;
        }
        a.recolor();
        let b = graph(256, 0, 7);
        let mut m = Metrics::new();
        assert!(dual_search([&a, &b], 0, Id::from_f64(0.9), &mut m));
        assert!(dual_search([&b, &a], 0, Id::from_f64(0.9), &mut m));
    }

    #[test]
    fn verified_routing_delivers_payload_through_good_groups() {
        let gg = graph(512, 25, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let mut m = Metrics::new();
        let mut sound = true;
        let mut successes = 0;
        for _ in 0..60 {
            let from = rng.gen_range(0..gg.len());
            let key = Id(rng.gen());
            let out = secure_route_verified(
                &gg,
                from,
                key,
                0xDEADBEEF,
                AdversaryMode::Equivocate { seed: 11 },
                &mut m,
            );
            sound &= out.abstraction_sound;
            if out.correct {
                successes += 1;
            }
        }
        assert!(sound, "group-level success must imply message-level delivery");
        assert!(successes > 50, "β≈0.047: most routes deliver, got {successes}/60");
    }

    #[test]
    fn verified_routing_with_colluding_adversary_is_still_sound() {
        let gg = graph(512, 50, 10);
        let mut rng = StdRng::seed_from_u64(11);
        let mut m = Metrics::new();
        for _ in 0..40 {
            let from = rng.gen_range(0..gg.len());
            let key = Id(rng.gen());
            let out = secure_route_verified(
                &gg,
                from,
                key,
                42,
                AdversaryMode::Collude { value: 666 },
                &mut m,
            );
            assert!(out.abstraction_sound);
        }
    }
}
