//! Multi-writer concurrency over the sharded serving layer: several
//! writer threads ingest batches into the *same* column while readers
//! estimate off composed snapshots — no panics, monotone checkpoints,
//! exact mass accounting at the end.
//!
//! Each writer deletes only values it inserted in its *own* earlier
//! batches: a commit is applied before it returns, so per-writer order
//! is preserved and deletions always target live values no matter how
//! writers interleave.

use dynamic_histograms::core::{ReadHistogram, UpdateOp};
use dynamic_histograms::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

const WRITERS: i64 = 4;
const BATCHES: i64 = 30;
const INSERTS_PER_BATCH: i64 = 150;
const DOMAIN: (i64, i64) = (0, 499);

/// Writer `w`'s batch `b`: 150 inserts, plus (from the second batch on)
/// 30 deletes of values the same writer inserted in its previous batch.
fn batch(w: i64, b: i64) -> Vec<UpdateOp> {
    let value = |b: i64, i: i64| (((w * BATCHES + b) * INSERTS_PER_BATCH + i) * 17) % 500;
    let mut ops: Vec<UpdateOp> = (0..INSERTS_PER_BATCH)
        .map(|i| UpdateOp::Insert(value(b, i)))
        .collect();
    if b > 0 {
        ops.extend((0..30).map(|i| UpdateOp::Delete(value(b - 1, i))));
    }
    ops
}

fn expected_total() -> f64 {
    (WRITERS * (BATCHES * INSERTS_PER_BATCH - (BATCHES - 1) * 30)) as f64
}

fn run(plan: ShardPlan) {
    let catalog = ShardedCatalog::new();
    catalog
        .register(
            "x",
            ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0))
                .with_seed(11)
                .with_plan(plan),
        )
        .unwrap();
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Readers: snapshots stay sane and checkpoints never regress.
        for _ in 0..2 {
            let catalog = &catalog;
            let done = &done;
            scope.spawn(move || {
                let mut last_cp = 0u64;
                let mut reads = 0u64;
                while !done.load(Ordering::Acquire) || reads == 0 {
                    let snap = catalog.snapshot("x").unwrap();
                    assert!(
                        snap.checkpoint() >= last_cp,
                        "checkpoint moved backwards: {last_cp} -> {}",
                        snap.checkpoint()
                    );
                    last_cp = snap.checkpoint();
                    let total = snap.total_count();
                    assert!(total.is_finite() && total >= -1e-6, "bad total {total}");
                    let est = snap.estimate_range(DOMAIN.0, DOMAIN.1);
                    assert!(
                        (est - total).abs() <= total * 0.05 + 1.0,
                        "full-domain estimate {est} far from total {total}"
                    );
                    reads += 1;
                }
            });
        }

        // The inner scope joins every writer before the flag flips, so
        // readers observe at least the complete ingestion tail.
        std::thread::scope(|writers| {
            for w in 0..WRITERS {
                let catalog = &catalog;
                writers.spawn(move || {
                    for b in 0..BATCHES {
                        catalog.apply("x", &batch(w, b)).unwrap();
                    }
                });
            }
        });
        done.store(true, Ordering::Release);
    });

    // Everything accepted, applied, and accounted for.
    catalog.flush("x").unwrap();
    assert_eq!(catalog.checkpoint("x").unwrap(), (WRITERS * BATCHES) as u64);
    let snap = catalog.snapshot("x").unwrap();
    assert_eq!(snap.checkpoint(), (WRITERS * BATCHES) as u64);
    assert!(
        (snap.total_count() - expected_total()).abs() < 1e-6,
        "total {} != expected {}",
        snap.total_count(),
        expected_total()
    );
}

#[test]
fn multi_writer_locked_ingestion() {
    run(ShardPlan::new(DOMAIN.0, DOMAIN.1, 8).unwrap());
}

#[test]
fn more_shards_than_values_still_works() {
    // Degenerate split: more shards than distinct values in the domain.
    let plan = ShardPlan::new(0, 3, 16).unwrap();
    let catalog = ShardedCatalog::new();
    catalog
        .register(
            "tiny",
            ColumnConfig::new(AlgoSpec::Dado, MemoryBudget::from_kb(0.25))
                .with_seed(5)
                .with_plan(plan),
        )
        .unwrap();
    let ops: Vec<UpdateOp> = (0..400).map(|i| UpdateOp::Insert(i % 4)).collect();
    catalog.apply("tiny", &ops).unwrap();
    assert!((catalog.total_count("tiny").unwrap() - 400.0).abs() < 1e-9);
    for v in 0..4 {
        let est = catalog.estimate_eq("tiny", v).unwrap();
        assert!((est - 100.0).abs() < 1e-6, "eq({v}) = {est}");
    }
}
