//! Property-based tests for the scenario codec: every expressible
//! [`ScenarioSpec`] survives the round trip through both serialized
//! forms — canonical label and flat JSON — field-for-field identical.
//! Float axes use the full `f64` range of each parameter (Rust's
//! shortest-roundtrip Display is part of the codec's contract).

use proptest::prelude::*;
use tg_core::dynamic::BuildMode;
use tg_core::params::GroupSizeRule;
use tg_core::runtime::RuntimeChoice;
use tg_core::scenario::{
    Defense, MintScheme, ScenarioError, ScenarioSpec, StrategySpec, StringAdversarySpec,
    StringMode, TransportChoice,
};
use tg_overlay::GraphKind;

/// Decode an index pair into one of the strategy variants, with
/// parameters driven by the raw inputs.
fn strategy(tag: u8, a: f64, b: f64, n: u64) -> StrategySpec {
    match tag % 7 {
        0 => StrategySpec::Honest,
        1 => StrategySpec::Uniform,
        2 => StrategySpec::GapFilling,
        3 => StrategySpec::IntervalTargeting { victim: a, width: b },
        4 => StrategySpec::AdaptiveMajorityFlipper { margin: (n % 9) as usize },
        5 => StrategySpec::ChurnTimed { trigger: a, retainer: b },
        _ => StrategySpec::PrecomputeHoarder { fam_seed: n, attempts: n.rotate_left(17) },
    }
}

fn defense(tag: u8) -> Defense {
    match tag % 5 {
        0 => Defense::NoPow,
        1 => Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true },
        2 => Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: false },
        3 => Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: true },
        _ => Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: false },
    }
}

fn rule(tag: u8, c: f64, k: u64) -> GroupSizeRule {
    match tag % 3 {
        0 => GroupSizeRule::TinyLogLog,
        1 => GroupSizeRule::ClassicLog { c },
        _ => GroupSizeRule::Fixed(k as usize),
    }
}

fn string_adversary(tag: u8, a: f64, n: u64) -> StringAdversarySpec {
    match tag % 3 {
        0 => StringAdversarySpec::None,
        1 => StringAdversarySpec::DelayedRelease {
            strings: (n % 17) as usize,
            release_frac: a,
            units: a * 3.0,
        },
        _ => StringAdversarySpec::ForcedRecords { strings: (n % 17) as usize, release_frac: a },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// spec → label → parse ⇒ the identical spec, and the same through
    /// the JSON form (satellite contract of the scenario API).
    #[test]
    fn spec_round_trips_through_label_and_json(
        n_good in 1usize..100_000,
        n_bad in 0usize..50_000,
        seed in any::<u64>(),
        searches in 0usize..10_000,
        beta in 0.0f64..0.5,
        delta in 0.0f64..1.0,
        d2 in 0.5f64..16.0,
        churn in 0.0f64..0.45,
        attack in 0usize..32,
        retries in 0usize..8,
        kind_tag in 0u8..4,
        mode_tag in 0u8..2,
        defense_tag in any::<u8>(),
        strings_tag in 0u8..2,
        strategy_tag in any::<u8>(),
        sa in 0.0f64..1.0,
        sb in 0.0f64..1.0,
        sn in any::<u64>(),
        rule_tag in any::<u8>(),
        rule_c in 0.1f64..8.0,
        rule_k in 1u64..64,
        idealized in any::<bool>(),
        cap in proptest::option::of(1u64..1u64 << 24),
        runtime_tag in 0u8..2,
        drop in 0.0f64..1.0,
        lat in 0u64..1024,
        part in 0u64..1024,
        transport_tag in 0u8..2,
        window in proptest::option::of(1u64..8192),
        stradv_tag in any::<u8>(),
        stradv_frac in 0.0f64..1.0,
        stradv_n in any::<u64>(),
    ) {
        // `transport=socket` is only expressible with the actor
        // runtime — the codec rejects the sync combination (pinned
        // separately below), so the generator honors the constraint.
        let runtime = if runtime_tag == 0 && transport_tag == 0 {
            RuntimeChoice::Sync
        } else {
            RuntimeChoice::Actor
        };
        let transport = if transport_tag == 0 { TransportChoice::Mem } else { TransportChoice::Socket };
        let mut spec = ScenarioSpec::new(n_good, seed)
            .beta(beta)
            .budget(n_bad)
            .group_factor(d2)
            .churn(churn)
            .attack_requests(attack)
            .link_retries(retries)
            .topology(GraphKind::ALL[(kind_tag % 4) as usize])
            .build_mode(if mode_tag == 0 { BuildMode::DualGraph } else { BuildMode::SingleGraph })
            .defense(defense(defense_tag))
            .strings(if strings_tag == 0 { StringMode::Protocol } else { StringMode::Synthesized })
            .strategy(strategy(strategy_tag, sa, sb, sn))
            .searches(searches)
            .idealized(idealized)
            .runtime(runtime)
            .drop_rate(drop)
            .latency(lat)
            .partition(part)
            .transport(transport)
            .string_adversary(string_adversary(stradv_tag, stradv_frac, stradv_n));
        if let Some(c) = cap {
            spec = spec.capacity(c as usize);
        }
        if let Some(w) = window {
            spec = spec.window(w);
        }
        spec.params.delta = delta;
        spec.params.size_rule = rule(rule_tag, rule_c, rule_k);

        let label = spec.label();
        let reparsed = ScenarioSpec::parse(&label);
        prop_assert_eq!(reparsed.as_ref(), Ok(&spec), "label: {}", label);

        let json = spec.to_json();
        let reparsed = ScenarioSpec::from_json(&json);
        prop_assert_eq!(reparsed.as_ref(), Ok(&spec), "json: {}", json);

        // The label is canonical: re-serializing the parsed spec yields
        // the same bytes (fit for cache keys / seed-stream labels).
        prop_assert_eq!(ScenarioSpec::parse(&label).unwrap().label(), label);
    }

    /// Corrupting any single field value of a label either fails to
    /// parse or parses to a *different* spec — no two distinct field
    /// values alias one spec (the cell-key property).
    #[test]
    fn distinct_seeds_and_axes_never_alias(
        n_good in 1usize..10_000,
        seed in any::<u64>(),
        other_seed in any::<u64>(),
        churn in 0.0f64..0.45,
        other_churn in 0.0f64..0.45,
    ) {
        let base = ScenarioSpec::new(n_good, seed).churn(churn);
        let seed_changed = ScenarioSpec::new(n_good, other_seed).churn(churn);
        let churn_changed = ScenarioSpec::new(n_good, seed).churn(other_churn);
        if seed != other_seed {
            prop_assert_ne!(base.label(), seed_changed.label());
        }
        if churn != other_churn {
            prop_assert_ne!(base.label(), churn_changed.label());
        }
    }

    /// The scale knobs are versioned *optional* fields: a default-knob
    /// spec emits a label without them (committed labels stay valid and
    /// byte-identical), and appending them to any label round-trips.
    #[test]
    fn scale_knobs_are_backward_compatible(
        n_good in 1usize..10_000,
        seed in any::<u64>(),
        churn in 0.0f64..0.45,
        cap in 1u64..1u64 << 24,
    ) {
        let base = ScenarioSpec::new(n_good, seed).churn(churn);
        let label = base.label();
        prop_assert!(!label.contains("cap="), "default capacity is elided: {}", label);
        for knob in ["runtime=", "drop=", "lat=", "part=", "transport=", "window=", "stradv="] {
            prop_assert!(!label.contains(knob), "default {} is elided: {}", knob, label);
        }

        // A pre-knob consumer's label parses to the default knobs.
        let parsed = ScenarioSpec::parse(&label).unwrap();
        prop_assert_eq!(parsed.capacity, None);
        prop_assert_eq!(parsed.runtime, RuntimeChoice::Sync);
        prop_assert_eq!(parsed.faults, tg_core::scenario::FaultPlan::default());
        prop_assert_eq!(parsed.transport, TransportChoice::Mem);
        prop_assert_eq!(parsed.window, None);
        prop_assert_eq!(parsed.string_adversary, StringAdversarySpec::None);

        // And the knobs themselves round-trip through both codecs.
        let scaled = base.capacity(cap as usize);
        prop_assert_eq!(&ScenarioSpec::parse(&scaled.label()).unwrap(), &scaled);
        prop_assert_eq!(&ScenarioSpec::from_json(&scaled.to_json()).unwrap(), &scaled);
    }

    /// Every key of a label — required or optional — is accepted at
    /// most once: appending a duplicate of *any* field makes the parse
    /// fail loudly instead of silently letting one value win. (The
    /// canonical-label property above makes aliasing impossible for
    /// emitted labels; this pins the behavior for hand-built ones.)
    #[test]
    fn duplicate_label_keys_are_rejected(
        n_good in 1usize..10_000,
        seed in any::<u64>(),
        churn in 0.0f64..0.45,
        drop in 0.001f64..1.0,
        lat in 1u64..1024,
        part in 1u64..1024,
        cap in 1u64..1u64 << 24,
        dup_value_from_label in any::<bool>(),
    ) {
        // Every optional knob is non-default, so all 26 emitted codec
        // keys appear in the label and each one gets a duplication trial
        // (`kernel=`, never emitted, is pinned by the no-op test below).
        let spec = ScenarioSpec::new(n_good, seed)
            .churn(churn)
            .capacity(cap as usize)
            .runtime(RuntimeChoice::Actor)
            .drop_rate(drop)
            .latency(lat)
            .partition(part)
            .transport(TransportChoice::Socket)
            .window(lat + 1)
            .string_adversary(StringAdversarySpec::ForcedRecords {
                strings: 3,
                release_frac: drop,
            });
        let label = spec.label();
        let fields: Vec<(&str, &str)> = label
            .split(';')
            .skip(1) // the `tg1` version tag
            .map(|f| f.split_once('=').expect("every label field is key=value"))
            .collect();
        prop_assert_eq!(fields.len(), 26, "label: {}", label);
        for (key, value) in &fields {
            // Duplicating with the same value must fail exactly like a
            // conflicting one — duplicates are rejected, not merged.
            let dup = if dup_value_from_label { value } else { "0" };
            let poisoned = format!("{label};{key}={dup}");
            let parsed = ScenarioSpec::parse(&poisoned);
            prop_assert!(parsed.is_err(), "duplicate `{}` accepted: {}", key, poisoned);
            let msg = format!("{:?}", parsed.unwrap_err());
            prop_assert!(
                msg.contains("duplicate field"),
                "duplicate `{}` rejected for the wrong reason: {}",
                key,
                msg
            );
        }
    }

    /// `kernel=` is retired codec residue: `arena` and `legacy` both
    /// parse to the spec the label names without the token, emission
    /// never writes it, and a duplicate or unknown value is still
    /// rejected.
    #[test]
    fn kernel_token_is_a_parse_no_op(
        n_good in 1usize..10_000,
        seed in any::<u64>(),
        churn in 0.0f64..0.45,
        cap in proptest::option::of(1u64..1u64 << 24),
        actor in any::<bool>(),
        legacy in any::<bool>(),
    ) {
        let mut spec = ScenarioSpec::new(n_good, seed).churn(churn);
        if let Some(c) = cap {
            spec = spec.capacity(c as usize);
        }
        if actor {
            spec = spec.runtime(RuntimeChoice::Actor);
        }
        let label = spec.label();
        prop_assert!(!label.contains("kernel="), "kernel is never emitted: {}", label);
        prop_assert!(!spec.to_json().contains("kernel"), "kernel is never emitted to JSON");
        let token = if legacy { "legacy" } else { "arena" };
        let with_token = format!("{label};kernel={token}");
        prop_assert_eq!(ScenarioSpec::parse(&with_token), Ok(spec.clone()));
        prop_assert_eq!(ScenarioSpec::parse(&with_token).unwrap().label(), label.clone());
        for bad in [
            format!("{label};kernel=arena;kernel=legacy"),
            format!("{with_token};kernel={token}"),
            format!("{label};kernel=simd"),
            format!("{label};kernel="),
        ] {
            prop_assert!(ScenarioSpec::parse(&bad).is_err(), "must reject: {}", bad);
        }
    }

    /// `transport=socket` without `runtime=actor` is rejected at parse
    /// time — through both codec forms and through `build()` — with the
    /// typed [`ScenarioError::NeedsActorRuntime`], never at run time.
    #[test]
    fn socket_without_actor_runtime_is_rejected(
        n_good in 1usize..10_000,
        seed in any::<u64>(),
        churn in 0.0f64..0.45,
    ) {
        let base = ScenarioSpec::new(n_good, seed).churn(churn);

        // A hand-built label naming the socket transport but no (or the
        // sync) runtime: the codec refuses to produce the spec at all.
        let sync_label = format!("{};transport=socket", base.label());
        let parsed = ScenarioSpec::parse(&sync_label);
        prop_assert!(
            matches!(parsed, Err(ScenarioError::NeedsActorRuntime(_))),
            "parse accepted a sync socket spec: {:?}",
            parsed
        );
        let explicit = format!("{};runtime=sync;transport=socket", base.label());
        prop_assert!(matches!(
            ScenarioSpec::parse(&explicit),
            Err(ScenarioError::NeedsActorRuntime(_))
        ));

        // Same through the JSON form.
        let json = base.clone()
            .runtime(RuntimeChoice::Actor)
            .transport(TransportChoice::Socket)
            .to_json()
            .replace("\"runtime\": \"actor\",\n  ", "");
        prop_assert!(matches!(
            ScenarioSpec::from_json(&json),
            Err(ScenarioError::NeedsActorRuntime(_))
        ));

        // A builder-composed spec fails at build(), before any driver
        // (or socket) exists.
        let built = base.clone().transport(TransportChoice::Socket).build();
        prop_assert!(matches!(built, Err(ScenarioError::NeedsActorRuntime(_))));

        // The valid pairing parses and round-trips.
        let ok = base.runtime(RuntimeChoice::Actor).transport(TransportChoice::Socket);
        prop_assert_eq!(&ScenarioSpec::parse(&ok.label()).unwrap(), &ok);
    }

    /// The `stradv=` codec arm round-trips every variant and rejects
    /// malformed encodings (wrong arity, unknown name, junk numbers).
    #[test]
    fn string_adversary_codec_round_trips_and_rejects(
        strings in 0usize..1000,
        frac in 0.0f64..1.0,
        units in 0.0f64..64.0,
    ) {
        for adv in [
            StringAdversarySpec::None,
            StringAdversarySpec::DelayedRelease { strings, release_frac: frac, units },
            StringAdversarySpec::ForcedRecords { strings, release_frac: frac },
        ] {
            prop_assert_eq!(StringAdversarySpec::decode(&adv.encode()), Some(adv));
        }
        for bad in [
            "delayed",
            "delayed:1:0.5",
            "delayed:1:0.5:2:9",
            "records:1",
            "records:1:0.5:9",
            "hoard:1:0.5",
            "records:x:0.5",
            "",
        ] {
            prop_assert_eq!(StringAdversarySpec::decode(bad), None, "accepted `{}`", bad);
        }
    }
}

/// The `scale` benchmark template (10⁴ identities, `kernel=arena`,
/// `cap=10000`) still parses, to the spec without its kernel token.
#[test]
fn benchmark_scale_template_parses() {
    let label = "tg1;n=9500;bad=500;seed=42;searches=16;kind=d2b;mode=dual;\
defense=none;strings=protocol;strategy=honest;idealized=true;beta=0.05;delta=0.25;d1=2;d2=4;\
rule=loglog;churn=0.1;attack=0;retries=2;kernel=arena;cap=10000";
    let spec = ScenarioSpec::parse(label).expect("the scale template parses");
    assert_eq!(spec.capacity, Some(10_000));
    assert_eq!(spec.kind, GraphKind::D2B);
    assert_eq!(spec.label(), label.replace(";kernel=arena", ""));
}

/// A valid spec whose label carries every real-valued codec field: a
/// parameterized strategy (`tag` picks interval-targeting or
/// churn-timed), the `log:c` rule, a drop rate and a delayed-release
/// string adversary.
fn all_reals_spec(n_good: usize, seed: u64, a: f64, b: f64, tag: u8) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(n_good, seed)
        .beta(a * 0.4)
        .churn(b * 0.4)
        .strategy(strategy(3 + 2 * (tag % 2), a, b, 0))
        .drop_rate(a.max(1e-3))
        .string_adversary(string_adversary(1, b, 3));
    spec.params.size_rule = rule(1, 0.5 + b, 0);
    spec
}

/// Every real-valued slot of an [`all_reals_spec`] label: the field's
/// key and the index of the real among its `:`-separated parts.
const REAL_SLOTS: [(&str, usize); 11] = [
    ("beta", 0),
    ("delta", 0),
    ("d1", 0),
    ("d2", 0),
    ("churn", 0),
    ("drop", 0),
    ("rule", 1),
    ("strategy", 1),
    ("strategy", 2),
    ("stradv", 2),
    ("stradv", 3),
];

/// `label` with part `index` of field `key`'s value replaced by `with`,
/// or `None` if the label has no such part.
fn splice(label: &str, key: &str, index: usize, with: &str) -> Option<String> {
    let mut fields: Vec<String> = label.split(';').map(str::to_string).collect();
    let field = fields.iter_mut().find(|f| f.split_once('=').is_some_and(|(k, _)| k == key))?;
    let mut parts: Vec<&str> = field[key.len() + 1..].split(':').collect();
    *parts.get_mut(index)? = with;
    *field = format!("{key}={}", parts.join(":"));
    Some(fields.join(";"))
}

/// The flat JSON form of a (possibly hand-edited) label, every value
/// quoted.
fn json_of_label(label: &str) -> String {
    let fields = label.split(';').skip(1).filter_map(|field| field.split_once('='));
    let body: Vec<String> = std::iter::once(("codec", "tg1"))
        .chain(fields)
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// `text` after 1–4 random edits — overwrite a byte with any byte,
/// insert a codec fragment, or delete a short run — decoded lossily.
fn mutate(text: &str, seed: u64) -> String {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let fragments: Vec<&str> =
        "; = : , \" { } . - e NaN inf 1e400 -0 log: kernel=arena".split(' ').collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..5) {
        let at = rng.gen_range(0..bytes.len() + 1);
        match rng.gen_range(0..3) {
            0 if at < bytes.len() => bytes[at] = rng.gen(),
            1 => drop(bytes.splice(at..at, fragments[rng.gen_range(0..fragments.len())].bytes())),
            _ => drop(bytes.drain(at..(at + rng.gen_range(0..6usize)).min(bytes.len()))),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The decoders are total: arbitrary bytes and mutated labels, JSON
    /// forms and observation lines return `Ok` or `Err` without
    /// panicking, and every spec they accept round-trips through both
    /// forms.
    #[test]
    fn decoders_are_total_and_accepted_specs_round_trip(
        raw in proptest::collection::vec(any::<u8>(), 0..96),
        n_good in 1usize..10_000,
        seed in any::<u64>(),
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
        tag in any::<u8>(),
    ) {
        use tg_core::scenario::{EpochObservation, ObsRow};
        let spec = all_reals_spec(n_good, seed, a, b, tag);
        let raw = String::from_utf8_lossy(&raw).into_owned();
        let accepted = [
            ScenarioSpec::parse(&raw),
            ScenarioSpec::parse(&mutate(&spec.label(), seed)),
            ScenarioSpec::from_json(&raw),
            ScenarioSpec::from_json(&mutate(&spec.to_json(), seed)),
        ];
        for parsed in accepted.into_iter().flatten() {
            prop_assert_eq!(ScenarioSpec::parse(&parsed.label()), Ok(parsed.clone()));
            prop_assert_eq!(ScenarioSpec::from_json(&parsed.to_json()), Ok(parsed.clone()));
        }
        let obs = EpochObservation { epoch: seed, frac_red: vec![a], ..Default::default() };
        let _ = ObsRow::decode_line(&raw);
        let _ = ObsRow::decode_line(&mutate(&ObsRow::of(&obs).encode_line(), seed));
    }

    /// `NaN`, `inf` and `-inf` spliced into any real-valued field of a
    /// valid label (including the numbers inside `rule=`, `strategy=`
    /// and `stradv=`) are rejected through both codec forms, with a
    /// parse error that names the field.
    #[test]
    fn non_finite_reals_are_rejected(
        n_good in 1usize..10_000,
        seed in any::<u64>(),
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
        tag in any::<u8>(),
    ) {
        let spec = all_reals_spec(n_good, seed, a, b, tag);
        let label = spec.label();
        prop_assert_eq!(ScenarioSpec::parse(&label), Ok(spec.clone()));
        for (key, index) in REAL_SLOTS {
            for bad in ["NaN", "inf", "-inf", "+infinity", "1e400"] {
                let poisoned = splice(&label, key, index, bad).expect("every real slot exists");
                let json = json_of_label(&poisoned);
                for parsed in [ScenarioSpec::parse(&poisoned), ScenarioSpec::from_json(&json)] {
                    prop_assert!(
                        matches!(&parsed, Err(ScenarioError::Parse(msg)) if msg.contains(key)),
                        "{} in `{}`: {:?}",
                        bad,
                        key,
                        parsed
                    );
                }
            }
        }
    }
}

/// One shared store for the observation round-trip cases (a fresh
/// directory per test process; keys are unique per case).
fn prop_store() -> &'static tg_sim::ResultStore {
    use std::sync::OnceLock;
    static STORE: OnceLock<tg_sim::ResultStore> = OnceLock::new();
    STORE.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("tg-core-props-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        tg_sim::ResultStore::open(dir).expect("open proptest store")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random `EpochObservation`s survive the full persistence path —
    /// projection to `ObsRow`, the versioned line codec, and a real
    /// store round trip through the hash-chained stream — bit-for-bit
    /// (floats compared as raw bits, so NaN/−0.0/∞ all count).
    #[test]
    fn observation_round_trips_through_the_store(
        case in 0u64..u64::MAX,
        epoch in any::<u64>(),
        frac_red in any::<f64>(),
        sss in any::<f64>(),
        ssd in any::<f64>(),
        mean_memberships in any::<f64>(),
        bad_ids in any::<u32>(),
        bad_share in any::<f64>(),
        captured in any::<u32>(),
        total in any::<u32>(),
        has_pow in any::<bool>(),
        minted_good in any::<u16>(),
        good_misses in any::<u16>(),
        late in any::<u64>(),
    ) {
        use tg_core::scenario::{EpochObservation, ObsRow};
        let obs = EpochObservation {
            epoch,
            frac_red: vec![frac_red],
            search_success_single: sss,
            search_success_dual: ssd,
            mean_memberships,
            bad_ids: bad_ids as usize,
            bad_share,
            captured_groups: captured as usize,
            total_groups: total as usize,
            minted_good: has_pow.then_some(minted_good as usize),
            good_misses: has_pow.then_some(good_misses as usize),
            late,
            ..Default::default()
        };
        let row = ObsRow::of(&obs);
        let store = prop_store();
        let key = format!("prop;case={case};epoch={epoch}");
        store.put(&key, &[row.encode_line()]).expect("store put");
        let records = store.get(&key).expect("store get").expect("stream present");
        prop_assert_eq!(records.len(), 1);
        let back = ObsRow::decode_line(&records[0]).expect("decode");
        prop_assert_eq!(back.epoch, row.epoch);
        prop_assert_eq!(back.search_success_single.to_bits(), row.search_success_single.to_bits());
        prop_assert_eq!(back.search_success_dual.to_bits(), row.search_success_dual.to_bits());
        prop_assert_eq!(back.frac_red_s0.to_bits(), row.frac_red_s0.to_bits());
        prop_assert_eq!(back.captured_groups, row.captured_groups);
        prop_assert_eq!(back.total_groups, row.total_groups);
        prop_assert_eq!(back.bad_ids, row.bad_ids);
        prop_assert_eq!(back.bad_share.to_bits(), row.bad_share.to_bits());
        prop_assert_eq!(back.mean_memberships.to_bits(), row.mean_memberships.to_bits());
        prop_assert_eq!(back.minted_good.to_bits(), row.minted_good.to_bits());
        prop_assert_eq!(back.good_misses.to_bits(), row.good_misses.to_bits());
        prop_assert_eq!(back.late, row.late);
        // The SoA batch preserves the same row (`push` ∘ `row_at` = id).
        let mut batch = tg_core::scenario::ObservationBatch::new();
        batch.push(back);
        prop_assert_eq!(batch.row_at(0).encode_line(), row.encode_line());
    }
}
