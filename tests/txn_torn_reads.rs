//! Torn-read regression suite: readers interleaved with multi-writer
//! `WriteBatch` commits must observe **whole epochs only** — never a
//! batch partially applied across the shards of one column, nor across
//! the columns of one batch. This is the race PR 3 documented for the
//! sharded catalog (a batch landed shard-by-shard) made into a test,
//! driven generically over `&dyn ColumnStore` for plan-less columns
//! (one shard, one lock) and sharded ones.
//!
//! The workload makes tearing arithmetically visible: every committed
//! batch inserts exactly one value into *each* of the 8 shard ranges of
//! *both* columns (for a plan-less column, 8 values into its one
//! shard). Therefore, at any pinned epoch `e`:
//!
//! * each column's total mass is exactly `8 * e` (epoch `k` contributed
//!   its full 8 or nothing), and
//! * the two columns of a `SnapshotSet` carry identical mass.
//!
//! Any torn batch — a shard applied early, a column lagging — breaks one
//! of those equalities immediately.
//!
//! The `*_reshard_under_fire` variants additionally race a re-sharder
//! thread forcing border rebuilds against the writers, on a workload
//! whose value mass drifts (so the balanced borders actually keep
//! moving): the same whole-epoch assertions must hold *throughout* the
//! re-shards, because a re-shard conserves mass exactly and swaps
//! routing atomically behind the epoch barrier.

use dynamic_histograms::catalog::CatalogError;
use dynamic_histograms::core::ReadHistogram;
use dynamic_histograms::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

const WRITERS: i64 = 4;
const BATCHES: i64 = 50;
const SHARDS: i64 = 8;
const DOMAIN: (i64, i64) = (0, 799); // 8 shards of width 100

/// Writer `w`'s batch `b`: one insert per shard range, per column.
fn batch(w: i64, b: i64) -> WriteBatch {
    let mut batch = WriteBatch::new();
    for s in 0..SHARDS {
        let v = s * 100 + ((w * BATCHES + b) % 100);
        batch.insert("a", v).insert("b", v);
    }
    batch
}

/// Writer `w`'s batch `b` with drifting skew: still exactly `SHARDS`
/// inserts per column (the whole-epoch arithmetic is value-agnostic),
/// but the mass sits in a hot range that jumps halfway through the
/// replay, so a concurrent re-sharder keeps finding borders to move.
fn drifting_batch(w: i64, b: i64) -> WriteBatch {
    let mut batch = WriteBatch::new();
    let hot = if b < BATCHES / 2 { 0 } else { 600 };
    for s in 0..SHARDS {
        let v = hot + ((w * BATCHES + b + s * 13) % 200);
        batch.insert("a", v).insert("b", v);
    }
    batch
}

fn run_racing(
    store: &dyn ColumnStore,
    label: &str,
    batch_for: fn(i64, i64) -> WriteBatch,
    reshard: bool,
) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Readers: every SnapshotSet pins one epoch and must account for
        // exactly that many whole batches, in both columns.
        for _ in 0..2 {
            let store = &store;
            let done = &done;
            scope.spawn(move || {
                let mut last_epoch = 0u64;
                let mut reads = 0u64;
                while !done.load(Ordering::Acquire) || reads == 0 {
                    let set = store.snapshot_set(&["a", "b"]).unwrap();
                    let e = set.epoch();
                    assert!(
                        e >= last_epoch,
                        "{label}: epoch moved backwards: {last_epoch} -> {e}"
                    );
                    last_epoch = e;
                    let a = set.get("a").unwrap();
                    let b = set.get("b").unwrap();
                    assert_eq!(a.epoch(), e, "{label}: column a off the set epoch");
                    assert_eq!(b.epoch(), e, "{label}: column b off the set epoch");
                    let (ta, tb) = (a.total_count(), b.total_count());
                    assert!(
                        (ta - (SHARDS as f64) * e as f64).abs() < 1e-6,
                        "{label}: torn batch across shards: epoch {e} but mass {ta} \
                         (expected {})",
                        SHARDS * e as i64
                    );
                    assert!(
                        (ta - tb).abs() < 1e-6,
                        "{label}: torn batch across columns: a {ta} vs b {tb} at epoch {e}"
                    );
                    // Single-column snapshots obey the same whole-epoch
                    // accounting (their own pin, not the set's).
                    let solo = store.snapshot("a").unwrap();
                    assert!(
                        (solo.total_count() - (SHARDS as f64) * solo.epoch() as f64).abs() < 1e-6,
                        "{label}: solo snapshot torn: epoch {} mass {}",
                        solo.epoch(),
                        solo.total_count()
                    );
                    reads += 1;
                }
            });
        }

        // Optional chaos: a re-sharder forcing border rebuilds on both
        // columns while the writers commit.
        if reshard {
            let store = &store;
            let done = &done;
            scope.spawn(move || {
                let mut moved = 0u32;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    for col in ["a", "b"] {
                        if store.reshard(col).unwrap() {
                            moved += 1;
                        }
                    }
                    if finished {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                // The drifting workload guarantees at least one border
                // move per column (the final pass runs against the fully
                // skewed data even if the writers outran the loop) — the
                // race is real, not vacuous.
                assert!(moved >= 2, "re-sharder never moved a border");
            });
        }

        // Writers commit cross-column, cross-shard batches; the inner
        // scope joins them before the readers' flag flips.
        std::thread::scope(|writers| {
            for w in 0..WRITERS {
                let store = &store;
                writers.spawn(move || {
                    for b in 0..BATCHES {
                        store.commit(batch_for(w, b)).unwrap();
                    }
                });
            }
        });
        done.store(true, Ordering::Release);
    });

    // Final accounting: every batch published and applied.
    let expected = (WRITERS * BATCHES) as u64;
    assert_eq!(store.epoch(), expected, "{label}");
    for col in ["a", "b"] {
        store.flush(col).unwrap();
        assert_eq!(store.checkpoint(col).unwrap(), expected, "{label}");
        let snap = store.snapshot(col).unwrap();
        assert_eq!(snap.epoch(), expected, "{label}");
        assert!(
            (snap.total_count() - (SHARDS * WRITERS * BATCHES) as f64).abs() < 1e-6,
            "{label}: {col} total {} != {}",
            snap.total_count(),
            SHARDS * WRITERS * BATCHES
        );
    }
}

fn register_both(store: &dyn ColumnStore, plan: Option<ShardPlan>) {
    let config = ColumnConfig {
        plan,
        ..ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0)).with_seed(9)
    };
    store.register("a", config).unwrap();
    store.register("b", config).unwrap();
}

fn plan() -> Option<ShardPlan> {
    Some(ShardPlan::new(DOMAIN.0, DOMAIN.1, SHARDS as usize).unwrap())
}

#[test]
fn single_lock_store_never_serves_torn_batches() {
    let store = ShardedCatalog::new();
    register_both(&store, None);
    run_racing(&store, "plan-less", batch, false);
}

#[test]
fn sharded_locked_store_never_serves_torn_batches() {
    let store = ShardedCatalog::new();
    register_both(&store, plan());
    run_racing(&store, "sharded", batch, false);
}

#[test]
fn sharded_locked_reshard_under_fire_keeps_whole_epochs() {
    let store = ShardedCatalog::new();
    register_both(&store, plan());
    run_racing(&store, "sharded+reshard", drifting_batch, true);
}

/// The provided `estimate_*`/`total_count` convenience methods each pin
/// an independent snapshot, so two calls in one expression can straddle
/// an epoch published between them; reads off one [`SnapshotSet`] are
/// pinned together and cannot.
#[test]
fn snapshot_set_reads_cannot_straddle_epochs() {
    let store = ShardedCatalog::new();
    let config = ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(0.5));
    store.register("a", config).unwrap();
    store.register("b", config).unwrap();
    let mut setup = WriteBatch::new();
    setup.extend("a", (0..100).map(UpdateOp::Insert));
    setup.extend("b", (0..100).map(UpdateOp::Insert));
    store.commit(setup).unwrap();

    // A reader captures a consistent view, then a commit lands between
    // its two reads — the exact interleaving the provided methods are
    // vulnerable to.
    let set = store.snapshot_set(&["a", "b"]).unwrap();
    let a_then = store.total_count("a").unwrap();
    let mut racing = WriteBatch::new();
    racing.extend("a", (0..50).map(UpdateOp::Insert));
    racing.extend("b", (0..50).map(UpdateOp::Insert));
    store.commit(racing).unwrap();
    let b_now = store.total_count("b").unwrap();

    // Fresh provided calls straddled the epoch: `a` predates the racing
    // commit, `b` includes it — a torn cross-column view.
    assert!((a_then - 100.0).abs() < 1e-6);
    assert!((b_now - 150.0).abs() < 1e-6);

    // The set's reads are all pinned to its epoch: still the pre-commit
    // state, mutually consistent, regardless of when they are made.
    assert_eq!(set.epoch(), 1);
    assert!((set.total_count("a").unwrap() - 100.0).abs() < 1e-6);
    assert!((set.total_count("b").unwrap() - 100.0).abs() < 1e-6);
    assert!((set.estimate_range("a", 0, 99).unwrap() - 100.0).abs() < 1e-6);
    let eq_est = set.estimate_eq("b", 5).unwrap();
    assert!(eq_est > 0.0);
    // Columns outside the original request error instead of silently
    // reading at a different epoch.
    assert_eq!(
        set.total_count("ghost").unwrap_err(),
        CatalogError::UnknownColumn("ghost".into())
    );
    // A fresh set observes the racing commit — whole, in both columns.
    let set2 = store.snapshot_set(&["a", "b"]).unwrap();
    assert_eq!(set2.epoch(), 2);
    assert!((set2.total_count("a").unwrap() - 150.0).abs() < 1e-6);
    assert!((set2.total_count("b").unwrap() - 150.0).abs() < 1e-6);
}
