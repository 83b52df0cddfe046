//! Elastic rebuild plane: `ColumnStore::rebuild` changes shard count,
//! algorithm, and memory budget online behind the epoch barrier, and a
//! migration must be **faithful** — exact (integer) mass conservation
//! from the largest-remainder re-ingestion, and an estimate quality in
//! the same KS band as building the target algorithm from scratch on
//! the identical stream. A rebuild is a projection of the observed
//! distribution, not a reset.
//!
//! (Durability of shape changes is covered in `tests/durability.rs`,
//! replication in `tests/replica_parity.rs`.)

use dynamic_histograms::core::{HistogramCdf, ReadHistogram, UpdateOp};
use dynamic_histograms::prelude::*;
use proptest::prelude::*;

const DOMAIN: (i64, i64) = (0, 499);

fn sharded(spec: AlgoSpec, shards: usize, seed: u64) -> ShardedCatalog {
    let cat = ShardedCatalog::new();
    let plan = ShardPlan::new(DOMAIN.0, DOMAIN.1, shards).unwrap();
    cat.register(
        "c",
        ColumnConfig::new(spec, MemoryBudget::from_kb(1.0))
            .with_seed(seed)
            .with_plan(plan),
    )
    .unwrap();
    cat
}

fn cdf(cat: &ShardedCatalog) -> HistogramCdf {
    HistogramCdf::from_spans(cat.snapshot("c").unwrap().spans().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Migration fidelity: for any stream and any (A, B) algorithm
    /// pair, `rebuild(with_spec(B))` on a store built under A conserves
    /// the total mass exactly (the largest-remainder re-ingestion
    /// inserts exactly `round(total)` ops) and lands within a KS band
    /// of a store that ran B on the same stream from the start.
    #[test]
    fn migrating_algorithms_conserves_mass_and_distribution(
        values in prop::collection::vec(DOMAIN.0..DOMAIN.1 + 1, 200..600),
        seed in any::<u64>(),
        pair in 0usize..6,
    ) {
        let specs = [AlgoSpec::Dc, AlgoSpec::Dvo, AlgoSpec::Dado];
        let from = specs[pair / 2];
        let to = specs[(pair / 2 + 1 + pair % 2) % 3];

        let stream = UpdateStream::build(&values, WorkloadKind::RandomInsertions, seed);
        let migrated = sharded(from, 4, seed);
        let scratch = sharded(to, 4, seed);
        for chunk in stream.ops().chunks(128) {
            migrated.apply("c", chunk).unwrap();
            scratch.apply("c", chunk).unwrap();
        }

        prop_assert!(migrated.rebuild("c", RebuildPlan::new().with_spec(to)).unwrap());
        let shape = migrated.column_shape("c").unwrap().unwrap();
        prop_assert_eq!(shape.spec, to);

        // Exact conservation: an integer stream comes through a rebuild
        // with its integer mass, not a resampled approximation.
        let total = migrated.total_count("c").unwrap();
        prop_assert!(
            (total - values.len() as f64).abs() < 1e-6,
            "rebuild leaked mass: {} != {}", total, values.len()
        );

        // Fidelity: the migrated store tracks the from-scratch build of
        // the same algorithm within a KS band. The rebuild re-ingests
        // *composed spans* (already smoothed by A), so it cannot be
        // bit-identical — but it must describe the same distribution.
        let d = ks_between(&cdf(&migrated), &cdf(&scratch));
        prop_assert!(
            d <= 0.10,
            "migrated {:?}→{:?} strays from scratch-built {:?}: KS {:.4}",
            from, to, to, d
        );
    }

    /// Shard-count elasticity: growing and then shrinking `k` conserves
    /// mass exactly at every step and the live shape tracks the plan.
    #[test]
    fn growing_and_shrinking_shards_conserves_mass(
        values in prop::collection::vec(DOMAIN.0..DOMAIN.1 + 1, 100..400),
        seed in any::<u64>(),
        grow in 5usize..16,
        shrink in 1usize..4,
    ) {
        let cat = sharded(AlgoSpec::Dc, 4, seed);
        let ops: Vec<UpdateOp> = values.iter().map(|&v| UpdateOp::Insert(v)).collect();
        cat.apply("c", &ops).unwrap();
        for k in [grow, shrink] {
            cat.rebuild("c", RebuildPlan::new().with_shards(k)).unwrap();
            let shape = cat.column_shape("c").unwrap().unwrap();
            prop_assert_eq!(shape.shards, k);
            let total = cat.total_count("c").unwrap();
            prop_assert!(
                (total - values.len() as f64).abs() < 1e-6,
                "k={}: mass {} != {}", k, total, values.len()
            );
        }
    }
}

/// A full combined rebuild — new `k`, new algorithm, new budget in one
/// barrier — lands with every delta applied and the mass intact; the
/// registered spec stays frozen by contract.
#[test]
fn combined_rebuild_applies_every_delta_atomically() {
    let cat = sharded(AlgoSpec::Dc, 4, 11);
    let ops: Vec<UpdateOp> = (0..2_000).map(|i| UpdateOp::Insert(i * 7 % 500)).collect();
    cat.apply("c", &ops).unwrap();

    assert!(cat
        .rebuild(
            "c",
            RebuildPlan::new()
                .with_shards(12)
                .with_spec(AlgoSpec::Dado)
                .with_memory(MemoryBudget::from_kb(2.0)),
        )
        .unwrap());

    let shape = cat.column_shape("c").unwrap().unwrap();
    assert_eq!(shape.shards, 12);
    assert_eq!(shape.spec, AlgoSpec::Dado);
    assert_eq!(shape.memory, MemoryBudget::from_kb(2.0));
    assert_eq!(shape.domain, DOMAIN);
    // The registration spec is the frozen contract; the live shape is
    // the accessor for what is actually serving.
    assert_eq!(cat.spec("c").unwrap(), AlgoSpec::Dc);
    assert!((cat.total_count("c").unwrap() - 2_000.0).abs() < 1e-6);

    // The rebuilt store keeps ingesting and reading.
    cat.apply("c", &ops).unwrap();
    assert!((cat.total_count("c").unwrap() - 4_000.0).abs() < 1e-6);
}

/// An empty plan is a pure border rebalance — `reshard()` remains the
/// thin wrapper over it — and degenerate plans are typed errors.
#[test]
fn empty_plans_rebalance_and_degenerate_plans_are_rejected() {
    let cat = sharded(AlgoSpec::Dc, 8, 3);
    // Maximal skew: everything in the first equal-width shard.
    let ops: Vec<UpdateOp> = (0..1_024).map(|i| UpdateOp::Insert(i % 60)).collect();
    cat.apply("c", &ops).unwrap();
    assert!(cat.rebuild("c", RebuildPlan::new()).unwrap());
    let shape = cat.column_shape("c").unwrap().unwrap();
    assert_eq!((shape.shards, shape.spec), (8, AlgoSpec::Dc));
    assert!((cat.total_count("c").unwrap() - 1_024.0).abs() < 1e-6);

    assert!(matches!(
        cat.rebuild("c", RebuildPlan::new().with_shards(0)),
        Err(CatalogError::InvalidShardPlan(_))
    ));
    assert!(cat.rebuild("ghost", RebuildPlan::new()).is_err());
}

/// The autoscaling acceptance loop on a bare sharded store: a hot
/// burst doubles `k` toward the cap, an idle tail halves it back to
/// the floor — every step an ordinary `RebuildPlan` behind the same
/// barrier, with the mass carried through intact.
#[test]
fn autoscale_policy_scales_up_under_load_and_down_when_idle() {
    let policy = AutoscalePolicy {
        min_shards: 2,
        max_shards: 8,
        scale_up_rate: 1_024,
        scale_down_rate: 32,
        skew_threshold: 4.0,
        min_interval_epochs: 2,
        min_load: 512,
    };
    let cat = ShardedCatalog::new();
    cat.register(
        "c",
        ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0))
            .with_seed(5)
            .with_plan(ShardPlan::new(DOMAIN.0, DOMAIN.1, 2).unwrap())
            .with_autoscale(policy),
    )
    .unwrap();

    let mut total = 0u64;
    let mut peak = 0;
    // Burst: 2048 ops per epoch, far above the scale-up rate.
    for e in 0..12i64 {
        let batch: Vec<UpdateOp> = (0..2_048)
            .map(|i| UpdateOp::Insert((e + i) % 500))
            .collect();
        total += batch.len() as u64;
        cat.apply("c", &batch).unwrap();
        peak = peak.max(cat.column_shape("c").unwrap().unwrap().shards);
    }
    assert_eq!(peak, 8, "burst must scale k to the cap");

    // Idle: 8 ops per epoch, far below the scale-down rate.
    for e in 0..24i64 {
        let batch: Vec<UpdateOp> = (0..8)
            .map(|i| UpdateOp::Insert((e * 31 + i) % 500))
            .collect();
        total += batch.len() as u64;
        cat.apply("c", &batch).unwrap();
    }
    assert_eq!(
        cat.column_shape("c").unwrap().unwrap().shards,
        2,
        "idle tail must scale k back to the floor"
    );
    assert!((cat.total_count("c").unwrap() - total as f64).abs() < 1e-6);
}

/// Rebuilds preserve the routing invariants: after any shape change
/// the live map still tiles the domain and routes exactly.
#[test]
fn rebuilt_maps_keep_routing_invariants() {
    let cat = sharded(AlgoSpec::Dc, 4, 17);
    let ops: Vec<UpdateOp> = (0..3_000).map(|i| UpdateOp::Insert(i * i % 500)).collect();
    cat.apply("c", &ops).unwrap();
    for k in [9, 16, 3] {
        cat.rebuild("c", RebuildPlan::new().with_shards(k)).unwrap();
        let map = cat.shard_map("c").unwrap();
        assert_eq!(map.domain(), DOMAIN);
        assert_eq!(map.shards(), k);
        let mut next = DOMAIN.0;
        for i in 0..k {
            let (a, b) = map.shard_range(i);
            assert_eq!(a, next, "shard {i} must start where {} ended", i as i64 - 1);
            assert!(b >= a - 1, "shard {i} range worse than empty");
            next = b + 1;
            if b >= a {
                assert_eq!(map.route(a), i);
                assert_eq!(map.route(b), i);
            }
        }
        assert_eq!(next, DOMAIN.1 + 1, "ranges must tile the whole domain");
    }
}
