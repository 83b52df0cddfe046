//! Estimation straight off a serving store: mixed-algorithm equi-joins
//! and chains over epoch-pinned snapshots, written once against
//! `&dyn ColumnStore` and exercised over plan-less and sharded columns.
//!
//! The build side and the probe side deliberately use *different*
//! algorithms (a maintained DC histogram against a rebuilt V-Optimal
//! one) — the deployment the unified registry exists for — and the
//! optimizer entry points (`estimate_equi_join_at`,
//! `propagate_chain_at`, `Predicate::cardinality_at`) read through
//! `SnapshotSet`s, so every cross-column estimate is pinned to one
//! store epoch.

use dynamic_histograms::core::{DataDistribution, UpdateOp};
use dynamic_histograms::optimizer::{
    estimate_equi_join, estimate_equi_join_at, exact_equi_join, propagate_chain_at, Predicate,
};
use dynamic_histograms::prelude::*;

/// Clustered values for one relation, plus the stream that produces them.
fn relation(seed: u64) -> (Vec<UpdateOp>, DataDistribution) {
    let cfg = SyntheticConfig::default()
        .with_clusters(80)
        .with_total_points(15_000);
    let data = cfg.generate(seed);
    let stream = UpdateStream::build(&data.values, WorkloadKind::RandomInsertions, seed);
    let truth = DataDistribution::from_values(&data.values);
    (stream.ops(), truth)
}

/// The column shapes under test: plan-less (one shard over all of
/// `i64`) and a 6-shard plan — the same config otherwise.
fn stores() -> Vec<(Option<ShardPlan>, Box<dyn ColumnStore>)> {
    vec![
        (
            None,
            Box::new(ShardedCatalog::new()) as Box<dyn ColumnStore>,
        ),
        (Some(plan()), Box::new(ShardedCatalog::new())),
    ]
}

fn plan() -> ShardPlan {
    ShardPlan::new(0, 5000, 6).unwrap()
}

/// `config` with the column shape under test.
fn planned(plan: Option<ShardPlan>, config: ColumnConfig) -> ColumnConfig {
    ColumnConfig { plan, ..config }
}

#[test]
fn mixed_algo_join_through_store_snapshots() {
    let memory = MemoryBudget::from_kb(1.0);
    let (r_ops, r_truth) = relation(2);
    let (s_ops, s_truth) = relation(3);
    let exact = exact_equi_join(&r_truth, &s_truth) as f64;
    assert!(exact > 0.0);

    for (kind, store) in stores() {
        store
            .register(
                "r.key",
                planned(kind, ColumnConfig::new(AlgoSpec::Dc, memory).with_seed(2)),
            )
            .unwrap();
        store
            .register(
                "s.key",
                planned(
                    kind,
                    ColumnConfig::new(AlgoSpec::VOptimal, memory).with_seed(3),
                ),
            )
            .unwrap();
        store.apply("r.key", &r_ops).unwrap();
        store.apply("s.key", &s_ops).unwrap();

        // Both columns pinned to one epoch by the entry point itself.
        let est = estimate_equi_join_at(store.as_ref(), "r.key", "s.key").unwrap();
        let ratio = est / exact;
        assert!(
            (0.5..2.0).contains(&ratio),
            "{kind:?}: mixed DC ⋈ SVO estimate off: est {est}, exact {exact}"
        );

        // The set the entry point reads is the same view a manual
        // snapshot_set sees: consistent labels and epoch.
        let set = store.snapshot_set(&["r.key", "s.key"]).unwrap();
        assert_eq!(set.get("r.key").unwrap().label(), "DC");
        assert_eq!(set.get("s.key").unwrap().label(), "SVO");
        assert_eq!(set.get("r.key").unwrap().epoch(), set.epoch());
        assert_eq!(set.get("s.key").unwrap().epoch(), set.epoch());
        let manual = estimate_equi_join(set.get("r.key").unwrap(), set.get("s.key").unwrap());
        assert!((manual - est).abs() < 1e-9 * est.max(1.0), "{kind:?}");
    }
}

#[test]
fn mixed_algo_chain_propagates_through_store() {
    let memory = MemoryBudget::from_kb(1.0);
    // Three relations, three different algorithms in one chain.
    let specs = [
        ("r1", AlgoSpec::Dado),
        ("r2", AlgoSpec::Ssbm),
        ("r3", AlgoSpec::Dc),
    ];
    for (kind, store) in stores() {
        let mut truths = Vec::new();
        for (i, (col, spec)) in specs.iter().enumerate() {
            store
                .register(
                    col,
                    planned(
                        kind,
                        ColumnConfig::new(*spec, memory).with_seed(10 + i as u64),
                    ),
                )
                .unwrap();
            let (ops, truth) = relation(10 + i as u64);
            store.apply(col, &ops).unwrap();
            truths.push(truth);
        }
        let report = propagate_chain_at(store.as_ref(), &["r1", "r2", "r3"], &truths).unwrap();
        assert_eq!(report.estimated.len(), 2);
        assert!(
            report.final_error() < 1.0,
            "{kind:?}: fresh mixed-algo chain should stay usable: {:?}",
            report.relative_errors()
        );
    }
}

#[test]
fn sharded_snapshots_join_like_unsharded_ones() {
    // The optimizer must not be able to tell a sharded column from an
    // unsharded one: join a sharded snapshot against a plan-less one,
    // and cross-check against the all-unsharded estimate.
    let memory = MemoryBudget::from_kb(1.0);
    let (r_ops, r_truth) = relation(21);
    let (s_ops, s_truth) = relation(22);

    let plain = ShardedCatalog::new();
    plain
        .register(
            "r.key",
            ColumnConfig::new(AlgoSpec::Dc, memory).with_seed(21),
        )
        .unwrap();
    plain
        .register(
            "s.key",
            ColumnConfig::new(AlgoSpec::Dado, memory).with_seed(22),
        )
        .unwrap();
    plain.apply("r.key", &r_ops).unwrap();
    plain.apply("s.key", &s_ops).unwrap();

    let sharded = ShardedCatalog::new();
    sharded
        .register(
            "s.key",
            ColumnConfig::new(AlgoSpec::Dado, memory)
                .with_seed(22)
                .with_plan(plan()),
        )
        .unwrap();
    sharded.apply("s.key", &s_ops).unwrap();
    sharded.flush("s.key").unwrap();

    let r = plain.snapshot("r.key").unwrap();
    let s_plain = plain.snapshot("s.key").unwrap();
    let s_sharded = sharded.snapshot("s.key").unwrap();

    let exact = exact_equi_join(&r_truth, &s_truth) as f64;
    assert!(exact > 0.0);
    let est_sharded = estimate_equi_join(&r, &s_sharded);
    let est_plain = estimate_equi_join(&r, &s_plain);
    let ratio = est_sharded / exact;
    assert!(
        (0.5..2.0).contains(&ratio),
        "DC ⋈ sharded-DADO estimate off: est {est_sharded}, exact {exact}"
    );
    // And the sharded estimate tracks the unsharded one.
    assert!(
        (est_sharded - est_plain).abs() / est_plain < 0.25,
        "sharded join {est_sharded} drifted from unsharded {est_plain}"
    );
}

#[test]
fn selection_predicates_read_off_stores() {
    let (ops, truth) = relation(5);
    for (kind, store) in stores() {
        store
            .register(
                "t.v",
                planned(
                    kind,
                    ColumnConfig::new(AlgoSpec::Dado, MemoryBudget::from_kb(1.0)).with_seed(5),
                ),
            )
            .unwrap();
        store.apply("t.v", &ops).unwrap();
        for p in [
            Predicate::Le(1000),
            Predicate::Between(500, 2500),
            Predicate::Gt(4000),
        ] {
            let est = p.cardinality_at(store.as_ref(), "t.v").unwrap();
            let exact = p.exact(&truth) as f64;
            let abs_err = (est - exact).abs() / truth.total() as f64;
            assert!(
                abs_err < 0.05,
                "{kind:?}: {p:?}: est {est} vs exact {exact} (rel-to-total {abs_err})"
            );
        }
    }
}
