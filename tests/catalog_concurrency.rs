//! Catalog concurrency smoke test: a writer thread ingests batches while
//! reader threads estimate ranges off snapshots — no panics, monotone
//! checkpoint counts, sane estimates throughout.
//!
//! This is the paper's deployment story made literal: the histogram is
//! maintained in place *while* the optimizer keeps reading it.

use dynamic_histograms::core::{ReadHistogram, UpdateOp};
use dynamic_histograms::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

const BATCHES: usize = 60;
const BATCH_SIZE: i64 = 200;

fn batch(b: i64, column_salt: i64) -> Vec<UpdateOp> {
    (0..BATCH_SIZE)
        .map(|i| {
            let v = ((b * BATCH_SIZE + i) * (13 + column_salt)) % 500;
            if i % 9 == 8 && b > 0 {
                // Delete something inserted by an earlier batch.
                UpdateOp::Delete(((b - 1) * BATCH_SIZE * (13 + column_salt)) % 500)
            } else {
                UpdateOp::Insert(v)
            }
        })
        .collect()
}

#[test]
fn writer_and_readers_share_the_catalog() {
    let catalog = ShardedCatalog::new();
    let memory = MemoryBudget::from_kb(1.0);
    catalog
        .register("dc", ColumnConfig::new(AlgoSpec::Dc, memory).with_seed(11))
        .unwrap();
    catalog
        .register(
            "dado",
            ColumnConfig::new(AlgoSpec::Dado, memory).with_seed(11),
        )
        .unwrap();
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Writer: one batch per column per round.
        scope.spawn(|| {
            for b in 0..BATCHES as i64 {
                let cp = catalog.apply("dc", &batch(b, 0)).unwrap();
                assert_eq!(cp, (b + 1) as u64, "writer sees its own batch count");
                catalog.apply("dado", &batch(b, 4)).unwrap();
            }
            done.store(true, Ordering::Release);
        });

        // Readers: estimate continuously until the writer finishes, and
        // assert checkpoints never move backwards.
        for _ in 0..3 {
            scope.spawn(|| {
                let mut last_cp = [0u64; 2];
                let mut reads = 0u64;
                while !done.load(Ordering::Acquire) || reads == 0 {
                    for (ci, col) in ["dc", "dado"].iter().enumerate() {
                        let snap = catalog.snapshot(col).unwrap();
                        assert!(
                            snap.checkpoint() >= last_cp[ci],
                            "{col}: checkpoint moved backwards: {} -> {}",
                            last_cp[ci],
                            snap.checkpoint()
                        );
                        last_cp[ci] = snap.checkpoint();
                        let est = snap.estimate_range(0, 499);
                        assert!(est.is_finite() && est >= 0.0, "{col}: bad estimate {est}");
                        assert!(
                            (est - snap.total_count()).abs() <= snap.total_count() * 0.05 + 1.0,
                            "{col}: full-domain estimate {est} far from total {}",
                            snap.total_count()
                        );
                    }
                    reads += 1;
                }
                assert!(reads > 0);
            });
        }
    });

    // Final state: every batch accounted for, snapshots at the last
    // checkpoint.
    for col in ["dc", "dado"] {
        assert_eq!(catalog.checkpoint(col).unwrap(), BATCHES as u64);
        let snap = catalog.snapshot(col).unwrap();
        assert_eq!(snap.checkpoint(), BATCHES as u64);
        assert!(snap.total_count() > 0.0);
    }
}

#[test]
fn columns_do_not_interfere() {
    let catalog = ShardedCatalog::new();
    let memory = MemoryBudget::from_kb(0.5);
    catalog
        .register("a", ColumnConfig::new(AlgoSpec::Dc, memory).with_seed(1))
        .unwrap();
    catalog
        .register(
            "b",
            ColumnConfig::new(AlgoSpec::EquiDepth, memory).with_seed(1),
        )
        .unwrap();

    std::thread::scope(|scope| {
        scope.spawn(|| {
            for b in 0..30i64 {
                catalog.apply("a", &batch(b, 0)).unwrap();
            }
        });
        scope.spawn(|| {
            for b in 0..10i64 {
                catalog.apply("b", &batch(b, 2)).unwrap();
            }
        });
    });

    assert_eq!(catalog.checkpoint("a").unwrap(), 30);
    assert_eq!(catalog.checkpoint("b").unwrap(), 10);
}
