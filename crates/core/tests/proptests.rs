//! Property-based tests for the group layer's invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tg_core::dynamic::{BuildMode, DynamicSystem, UniformProvider};
use tg_core::{build_initial_graph, search_path, Color, GroupGraphView, Params, Population};
use tg_crypto::OracleFamily;
use tg_idspace::Id;
use tg_overlay::GraphKind;
use tg_sim::Metrics;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Color classification is consistent: a red group either lacks a
    /// good majority or is confused; a blue group has both properties.
    #[test]
    fn colors_match_definitions(seed in any::<u64>(), n_bad in 0usize..60) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = Population::uniform(240, n_bad, &mut rng);
        let params = Params::paper_defaults();
        let gg = build_initial_graph(pop, GraphKind::Chord, OracleFamily::new(seed).h1, &params);
        for i in 0..gg.len() {
            let majority = gg.groups[i].has_good_majority(&gg.pool);
            match gg.color(i) {
                Color::Blue => prop_assert!(majority && !gg.confused[i]),
                Color::Red => prop_assert!(!majority || gg.confused[i]),
            }
        }
    }

    /// Search-path semantics: a successful search's route contains no red
    /// group; a failed search's truncated path is red exactly at its end.
    #[test]
    fn search_path_truncation_invariant(seed in any::<u64>(), n_bad in 0usize..80) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = Population::uniform(220, n_bad, &mut rng);
        let params = Params::paper_defaults();
        let gg = build_initial_graph(pop, GraphKind::D2B, OracleFamily::new(seed).h1, &params);
        let mut m = Metrics::new();
        for _ in 0..12 {
            let from = rng.gen_range(0..gg.len());
            let key = Id(rng.gen());
            let route = gg.topology.route(gg.leaders.ring().at(from), key);
            let out = search_path(&gg, from, key, &mut m);
            let idx_of = |id: Id| gg.leaders.ring().index_of(id).expect("leader");
            match out {
                tg_core::SearchOutcome::Success { hops, .. } => {
                    prop_assert_eq!(hops, route.hops.len());
                    for &h in &route.hops {
                        prop_assert!(!gg.is_red(idx_of(h)));
                    }
                }
                tg_core::SearchOutcome::Fail { failed_at, hops, .. } => {
                    prop_assert_eq!(hops, failed_at + 1);
                    prop_assert!(gg.is_red(idx_of(route.hops[failed_at])));
                    for &h in &route.hops[..failed_at] {
                        prop_assert!(!gg.is_red(idx_of(h)));
                    }
                }
            }
        }
    }

    /// Message accounting is conserved: the per-search messages equal the
    /// sum over traversed edges of |G_i|·|G_{i+1}|.
    #[test]
    fn message_accounting_is_exact(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = Population::uniform(200, 10, &mut rng);
        let params = Params::paper_defaults();
        let gg = build_initial_graph(pop, GraphKind::Chord, OracleFamily::new(seed).h1, &params);
        let from = rng.gen_range(0..gg.len());
        let key = Id(rng.gen());
        let route = gg.topology.route(gg.leaders.ring().at(from), key);
        let mut m = Metrics::new();
        let out = search_path(&gg, from, key, &mut m);
        let traversed = out.hops();
        let mut expect = 0u64;
        for pair in route.hops[..traversed].windows(2) {
            let a = gg.leaders.ring().index_of(pair[0]).unwrap();
            let b = gg.leaders.ring().index_of(pair[1]).unwrap();
            expect += (gg.group_size(a) * gg.group_size(b)) as u64;
        }
        prop_assert_eq!(out.msgs(), expect);
        prop_assert_eq!(m.routing_msgs, expect);
    }

    /// A dynamic epoch conserves population counts: every new graph has
    /// one group per new leader and members drawn from the previous
    /// generation.
    #[test]
    fn dynamic_epoch_structure(seed in any::<u64>()) {
        let mut params = Params::paper_defaults();
        params.churn_rate = 0.1;
        params.attack_requests_per_id = 0;
        let mut provider = UniformProvider { n_good: 150, n_bad: 8 };
        let mut sys = DynamicSystem::new(
            params,
            GraphKind::D2B,
            BuildMode::DualGraph,
            &mut provider,
            seed,
            None,
        );
        sys.searches_per_epoch = 20;
        let pool_ring_before = sys.graphs.leaders.ring().clone();
        let _ = sys.advance_epoch(&mut provider);
        prop_assert_eq!(sys.graphs.pool.ring(), &pool_ring_before);
        for g in sys.graphs.view().iter() {
            prop_assert_eq!(g.len(), 158);
            for i in 0..g.len() {
                for &m in g.group_members(i) {
                    prop_assert!((m as usize) < g.pool().len());
                }
            }
        }
    }
}
