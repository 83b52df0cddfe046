//! Dynamic re-sharding: the live `ShardMap` keeps the documented
//! routing invariants across border rebuilds, re-sharding preserves
//! mass exactly, and — the point of the feature — re-balanced borders
//! measurably improve the max/mean shard-load balance on a Zipf-skewed
//! `dh_gen` replay versus the frozen registration-time plan.
//!
//! (Whole-epoch consistency *during* a re-shard is raced separately in
//! `tests/txn_torn_reads.rs`.)

use dynamic_histograms::core::{BucketSpan, ReadHistogram, UpdateOp};
use dynamic_histograms::prelude::*;
use proptest::prelude::*;

/// Max/mean routed-load ratio (1 = perfectly balanced).
fn balance(loads: &[u64]) -> f64 {
    let total: u64 = loads.iter().sum();
    if loads.is_empty() || total == 0 {
        return 1.0;
    }
    *loads.iter().max().unwrap() as f64 / (total as f64 / loads.len() as f64)
}

/// Asserts the documented `route`/`shard_range` invariants: the ranges
/// tile the domain in order (empty shards inverted, `b == a - 1`), and
/// routing is the exact inverse on every non-empty range, total on
/// `i64` via edge clamping.
fn check_map(map: &ShardMap, domain: (i64, i64), shards: usize) {
    let (lo, hi) = domain;
    assert_eq!(map.domain(), domain);
    assert_eq!(map.shards(), shards);
    assert_eq!(map.starts()[0], lo);
    let mut next = lo as i128;
    for i in 0..shards {
        let (a, b) = map.shard_range(i);
        assert_eq!(
            a as i128,
            next,
            "shard {i} must start where {} ended",
            i.wrapping_sub(1)
        );
        assert!(
            b as i128 >= a as i128 - 1,
            "shard {i} range worse than empty"
        );
        next = b as i128 + 1;
        if b < a {
            continue; // empty shard owns no value
        }
        let mid = ((a as i128 + b as i128) / 2) as i64;
        for v in [a, b, mid] {
            assert_eq!(map.route(v), i, "route({v}) must hit shard {i} [{a},{b}]");
        }
    }
    assert_eq!(next, hi as i128 + 1, "ranges must tile the whole domain");
    // Total on i64: out-of-domain values clamp to the edge shards.
    assert_eq!(map.route(i64::MIN), map.route(lo));
    assert_eq!(map.route(i64::MAX), map.route(hi));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Equal-width and balanced maps keep the invariants on any domain —
    /// including the full `i64` domain and domains pinned to either
    /// extreme — for any mass layout.
    #[test]
    fn maps_tile_any_domain(
        shape in (any::<u8>(), any::<u64>(), 0i64..5000, 1usize..12),
        masses in prop::collection::vec((any::<u64>(), 1u64..40), 0..30),
    ) {
        let (kind, lo_raw, span, shards) = shape;
        let domain = match kind % 4 {
            0 => (i64::MIN, i64::MAX),
            1 => (i64::MIN, i64::MIN + span),
            2 => (i64::MAX - span, i64::MAX),
            _ => {
                let lo = (lo_raw % 100_000) as i64 - 50_000;
                (lo, lo + span)
            }
        };
        let width = (domain.1 as i128 - domain.0 as i128) as u128 + 1;
        let spans: Vec<BucketSpan> = masses
            .iter()
            .map(|&(off, mass)| {
                let v = (domain.0 as i128 + (off as u128 % width) as i128) as f64;
                // Near the i64 extremes `v + 1.0` may round back onto
                // `v`; zero-width spans are legal and must not break
                // the cut computation.
                BucketSpan::new(v, (v + 1.0).max(v), mass as f64)
            })
            .collect();
        check_map(&ShardMap::equal_width(domain, shards).unwrap(), domain, shards);
        check_map(&ShardMap::balanced(&spans, domain, shards).unwrap(), domain, shards);
    }

    /// On a live store, `route`/`shard_range` stay exact inverses across
    /// repeated re-shards under drifting mass, and every re-shard
    /// conserves total mass exactly.
    #[test]
    fn live_store_invariants_hold_across_reshards(
        values in prop::collection::vec(0i64..400, 50..250),
        shards in 2usize..9,
        seed in any::<u64>(),
    ) {
        let cat = ShardedCatalog::new();
        let plan = ShardPlan::new(0, 399, shards).unwrap();
        cat.register(
            "c",
            ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(0.5))
                .with_seed(seed)
                .with_plan(plan),
        )
        .unwrap();
        for phase in 0..3i64 {
            let batch: Vec<UpdateOp> = values
                .iter()
                .map(|&v| UpdateOp::Insert((v + phase * 130) % 400))
                .collect();
            cat.apply("c", &batch).unwrap();
            cat.reshard("c").unwrap();
            check_map(&cat.shard_map("c").unwrap(), (0, 399), shards);
            let expected = (values.len() as i64 * (phase + 1)) as f64;
            let total = cat.total_count("c").unwrap();
            prop_assert!(
                (total - expected).abs() < 1e-6,
                "phase {phase}: mass {total} != {expected} after re-shard"
            );
        }
    }
}

#[test]
fn more_shards_than_values_keeps_empty_ranges_inverse() {
    // 3 domain values, 8 shards: 5 shards must come back empty
    // (inverted), and routing must skip them exactly.
    let domain = (10i64, 12i64);
    let map = ShardMap::equal_width(domain, 8).unwrap();
    check_map(&map, domain, 8);
    let empties = (0..8)
        .filter(|&i| {
            let (a, b) = map.shard_range(i);
            b < a
        })
        .count();
    assert_eq!(empties, 5);
    // Balanced cuts fall back to the same equal-width tiling (there is
    // nothing to balance), so a re-shard is a no-op.
    let spans = vec![BucketSpan::new(10.0, 13.0, 500.0)];
    assert_eq!(ShardMap::balanced(&spans, domain, 8).unwrap(), map);

    let cat = ShardedCatalog::new();
    let plan = ShardPlan::new(10, 12, 8).unwrap();
    cat.register(
        "tiny",
        ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(0.25)).with_plan(plan),
    )
    .unwrap();
    let ops: Vec<UpdateOp> = (0..300).map(|i| UpdateOp::Insert(10 + i % 3)).collect();
    cat.apply("tiny", &ops).unwrap();
    assert!(!cat.reshard("tiny").unwrap(), "nothing to move");
    check_map(&cat.shard_map("tiny").unwrap(), domain, 8);
    assert!((cat.total_count("tiny").unwrap() - 300.0).abs() < 1e-9);
}

/// The acceptance criterion: on a Zipf-skewed `dh_gen` replay, borders
/// rebuilt from the observed distribution route the rest of the stream
/// measurably more evenly than the frozen equal-width plan.
#[test]
fn reshard_improves_balance_on_zipf_skewed_replay() {
    let gen = SyntheticConfig::default()
        .with_domain(0, 999)
        .with_total_points(20_000)
        .with_size_skew(2.5)
        .with_spread_skew(2.5);
    let data = gen.generate(42);
    let ops = UpdateStream::build(&data.values, WorkloadKind::RandomInsertions, 7).ops();
    let (first, second) = ops.split_at(ops.len() / 2);

    let plan = ShardPlan::new(0, 999, 8).unwrap();
    let config = ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0))
        .with_seed(3)
        .with_plan(plan);
    let build = || {
        let cat = ShardedCatalog::new();
        cat.register("c", config).unwrap();
        cat
    };
    let frozen = build();
    let adaptive = build();
    for chunk in first.chunks(256) {
        frozen.apply("c", chunk).unwrap();
        adaptive.apply("c", chunk).unwrap();
    }
    assert!(adaptive.reshard("c").unwrap(), "skewed borders must move");
    // Fresh counters on the adaptive store measure exactly the
    // post-re-shard routing; the frozen store's second-half routing is
    // the delta over the same tail.
    assert!(adaptive.shard_load("c").unwrap().iter().all(|&l| l == 0));
    let frozen_before = frozen.shard_load("c").unwrap();
    for chunk in second.chunks(256) {
        frozen.apply("c", chunk).unwrap();
        adaptive.apply("c", chunk).unwrap();
    }
    let frozen_tail: Vec<u64> = frozen
        .shard_load("c")
        .unwrap()
        .iter()
        .zip(&frozen_before)
        .map(|(after, before)| after - before)
        .collect();
    let frozen_balance = balance(&frozen_tail);
    let adaptive_balance = balance(&adaptive.shard_load("c").unwrap());
    assert!(
        adaptive_balance < 0.75 * frozen_balance,
        "re-balanced borders must beat the frozen plan: \
         adaptive max/mean {adaptive_balance:.3} vs frozen {frozen_balance:.3}"
    );

    // Both stores account for every op exactly, re-shard or not.
    let expected = ops.len() as f64;
    assert!((frozen.total_count("c").unwrap() - expected).abs() < 1e-6);
    assert!((adaptive.total_count("c").unwrap() - expected).abs() < 1e-6);
    // And the adaptive store still estimates the same distribution:
    // full-range and quartile reads stay near the frozen ones.
    let fs = frozen.snapshot("c").unwrap();
    let as_ = adaptive.snapshot("c").unwrap();
    for (a, b) in [(0, 999), (0, 249), (250, 499), (500, 749), (750, 999)] {
        let fe = fs.estimate_range(a, b);
        let ae = as_.estimate_range(a, b);
        assert!(
            (fe - ae).abs() <= 0.05 * expected + 50.0,
            "[{a},{b}]: frozen {fe} vs adaptive {ae}"
        );
    }
}

#[test]
fn policy_fires_automatically_and_rebalances() {
    let policy = ReshardPolicy {
        skew_threshold: 1.5,
        min_interval_epochs: 4,
        min_load: 512,
    };
    let cat = ShardedCatalog::new();
    let plan = ShardPlan::new(0, 999, 8).unwrap();
    cat.register(
        "c",
        ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0))
            .with_seed(9)
            .with_plan(plan)
            .with_reshard(policy),
    )
    .unwrap();
    // Every value lands in the first equal-width shard: maximal skew.
    let mut total = 0u64;
    for b in 0..12i64 {
        let batch: Vec<UpdateOp> = (0..256)
            .map(|i| UpdateOp::Insert((b * 7 + i) % 100))
            .collect();
        total += batch.len() as u64;
        cat.apply("c", &batch).unwrap();
    }
    assert!(
        cat.rebuild_seq("c").unwrap() >= 1,
        "policy must have fired on an 8x-skewed load"
    );
    assert!((cat.total_count("c").unwrap() - total as f64).abs() < 1e-6);
    // The hot range [0, 99] is now split across many shards: replaying
    // the same stream shape routes far below the all-on-one-shard peak.
    let before = cat.shard_load("c").unwrap();
    let batch: Vec<UpdateOp> = (0..1024).map(|i| UpdateOp::Insert(i % 100)).collect();
    cat.apply("c", &batch).unwrap();
    let delta: Vec<u64> = cat
        .shard_load("c")
        .unwrap()
        .iter()
        .zip(&before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    assert!(
        *delta.iter().max().unwrap() < 1024,
        "hot range must no longer map to a single shard: {delta:?}"
    );
    // A single-shard column has no borders to move.
    cat.register(
        "one",
        ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(0.25))
            .with_plan(ShardPlan::new(0, 9, 1).unwrap())
            .with_reshard(ReshardPolicy::default()),
    )
    .unwrap();
    cat.apply("one", &[UpdateOp::Insert(1)]).unwrap();
    assert!(!cat.reshard("one").unwrap());
}

#[test]
fn unsharded_store_defaults_for_reshard_surface() {
    // A column registered without a plan is one shard over the whole
    // `i64` domain: no borders to move, one load counter, and no value
    // is ever clamped.
    let cat = ShardedCatalog::new();
    cat.register(
        "c",
        ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(0.5)),
    )
    .unwrap();
    cat.apply("c", &[UpdateOp::Insert(5), UpdateOp::Insert(1_000_000)])
        .unwrap();
    assert!(!cat.reshard("c").unwrap());
    assert_eq!(cat.shard_load("c").unwrap(), vec![2]);
    assert_eq!(cat.clamped_ops("c").unwrap(), 0);
    let shape = cat
        .column_shape("c")
        .unwrap()
        .expect("every column has a shape");
    assert_eq!((shape.shards, shape.domain), (1, (i64::MIN, i64::MAX)));
    assert!(cat.reshard("ghost").is_err());
    assert!(cat.shard_load("ghost").is_err());
    assert!(cat.clamped_ops("ghost").is_err());
}
