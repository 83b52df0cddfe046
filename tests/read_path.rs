//! Wait-free read-path regression suite (see `docs/READ_PATH.md`).
//!
//! Three contracts, each driven over plan-less columns (one shard, one
//! lock) and sharded ones:
//!
//! * **Zero-lock hot path.** While writers burst-commit, readers serving
//!   the current epoch off `snapshot` / `snapshot_set` / `estimate_*`
//!   must never fall back to the gated pinned render:
//!   `ReadStats::slow_renders` stays exactly 0 through the whole race.
//! * **Bit-identical caching.** A cached estimate is the memo of the
//!   first computation on the same immutable snapshot, so repeating a
//!   probe — and comparing against the uncached `Snapshot` arithmetic —
//!   must agree to the exact f64 bits, at every epoch.
//! * **No stale cache.** The predicate cache lives inside one epoch
//!   generation; a commit or a forced re-shard swaps the generation, so
//!   no reader can ever observe a pre-swap cached value: immediately
//!   after `apply`/`commit` returns, cached totals equal the new exact
//!   total, and under a racing re-sharder every cached estimate is
//!   still a whole-epoch quantity.

use dynamic_histograms::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

const SHARDS: usize = 8;
const DOMAIN: (i64, i64) = (0, 799);
/// Inserts per column per committed batch.
const PER_BATCH: i64 = 8;

/// Registers columns `a` and `b`: [`SHARDS`]-sharded, or plan-less.
fn register_columns(store: &dyn ColumnStore, sharded: bool) {
    let mut config = ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0)).with_seed(7);
    if sharded {
        config = config.with_plan(ShardPlan::new(DOMAIN.0, DOMAIN.1, SHARDS).unwrap());
    }
    store.register("a", config).unwrap();
    store.register("b", config).unwrap();
}

/// Batch `b`: exactly [`PER_BATCH`] inserts into each column, spread so
/// every shard range receives one.
fn batch(b: i64) -> WriteBatch {
    let mut batch = WriteBatch::new();
    for s in 0..PER_BATCH {
        let v = s * 100 + (b % 100);
        batch.insert("a", v).insert("b", v);
    }
    batch
}

/// The acceptance race: readers hammer every hot-path entry point while
/// a writer burst-commits. The slow-path counter must stay 0 — the hot
/// path took no lock and performed no retry for the entire run.
fn run_commit_burst(store: &dyn ColumnStore, label: &str) {
    store.commit(batch(0)).unwrap();
    let base = store.read_stats();
    assert_eq!(
        base.slow_renders, 0,
        "{label}: setup already used the slow path"
    );

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let store = &store;
            let done = &done;
            scope.spawn(move || {
                let mut reads = 0u64;
                while !done.load(Ordering::Acquire) || reads == 0 {
                    // Every provided read is a hot-path entry point.
                    let total = store.total_count("a").unwrap();
                    let range = store.estimate_range("a", DOMAIN.0, DOMAIN.1).unwrap();
                    // Each call pins its own (monotone) epoch, so the
                    // later full-domain probe can only see more mass.
                    assert!(
                        range + 1e-6 >= total,
                        "{label}: full-domain range {range} regressed below total {total}"
                    );
                    let _ = store.estimate_eq("b", 5).unwrap();
                    let snap = store.snapshot("b").unwrap();
                    // Whole epochs only, even off the cached front.
                    assert!(
                        (snap.total_count() - PER_BATCH as f64 * snap.epoch() as f64).abs() < 1e-6,
                        "{label}: snapshot mass {} at epoch {} is not whole",
                        snap.total_count(),
                        snap.epoch()
                    );
                    let set = store.snapshot_set(&["a", "b"]).unwrap();
                    let (ta, tb) = (set.total_count("a").unwrap(), set.total_count("b").unwrap());
                    assert!(
                        (ta - tb).abs() < 1e-6,
                        "{label}: cached set torn across columns: {ta} vs {tb}"
                    );
                    assert!(
                        (ta - PER_BATCH as f64 * set.epoch() as f64).abs() < 1e-6,
                        "{label}: cached set mass {ta} at epoch {} is not whole",
                        set.epoch()
                    );
                    reads += 1;
                }
            });
        }
        std::thread::scope(|writers| {
            let store = &store;
            writers.spawn(move || {
                for b in 1..200 {
                    store.commit(batch(b)).unwrap();
                }
            });
        });
        done.store(true, Ordering::Release);
    });

    let stats = store.read_stats();
    assert_eq!(
        stats.slow_renders, 0,
        "{label}: hot path fell back to the gated render under a commit burst: {stats:?}"
    );
    assert!(stats.fast_reads > 0, "{label}: no fast reads recorded");
    assert!(
        stats.cache_hits + stats.cache_misses > 0,
        "{label}: estimates never touched the front cache: {stats:?}"
    );
    assert!(
        stats.cache_invalidations > base.cache_invalidations,
        "{label}: commits never swapped the generation: {stats:?}"
    );
}

#[test]
fn single_lock_hot_path_never_slow_renders_under_commit_burst() {
    let store = ShardedCatalog::new();
    register_columns(&store, false);
    run_commit_burst(&store, "plan-less");
}

#[test]
fn sharded_locked_hot_path_never_slow_renders_under_commit_burst() {
    let store = ShardedCatalog::new();
    register_columns(&store, true);
    run_commit_burst(&store, "sharded");
}

/// Read-your-writes through the cache: the generation swap happens
/// before `apply`/`commit` returns, so the very next cached total is the
/// new exact total — a stale cache entry would fail on the first
/// iteration that follows a write.
fn run_no_stale_after_writes(store: &dyn ColumnStore, label: &str) {
    let mut expected = 0.0f64;
    for round in 0..50i64 {
        let values: Vec<UpdateOp> = (0..10)
            .map(|i| UpdateOp::Insert((round * 16 + i) % 800))
            .collect();
        store.apply("a", &values).unwrap();
        expected += 10.0;
        let total = store.total_count("a").unwrap();
        assert!(
            (total - expected).abs() < 1e-6,
            "{label}: round {round}: cached total {total} is stale (expected {expected})"
        );
        let range = store.estimate_range("a", DOMAIN.0, DOMAIN.1).unwrap();
        assert!(
            (range - expected).abs() < 1e-6,
            "{label}: round {round}: cached range {range} is stale (expected {expected})"
        );
        // Repeat the probe: same key, same generation — a cache hit that
        // must reproduce the exact bits of the miss that filled it.
        let again = store.estimate_range("a", DOMAIN.0, DOMAIN.1).unwrap();
        assert_eq!(again.to_bits(), range.to_bits(), "{label}: round {round}");
    }
    let stats = store.read_stats();
    assert_eq!(stats.slow_renders, 0, "{label}: {stats:?}");
    // The second identical probe per round is a hit on the fresh
    // generation's cache.
    assert!(stats.cache_hits > 0, "{label}: {stats:?}");
}

#[test]
fn single_lock_cache_is_never_stale_after_apply() {
    let store = ShardedCatalog::new();
    register_columns(&store, false);
    run_no_stale_after_writes(&store, "plan-less");
}

#[test]
fn sharded_locked_cache_is_never_stale_after_apply() {
    let store = ShardedCatalog::new();
    register_columns(&store, true);
    run_no_stale_after_writes(&store, "sharded");
}

/// A forced re-shard rebuilds cells at the *same* epoch, so it must
/// force-swap the generation (the stale-rendering rule): mass is
/// conserved, the invalidation counter moves, and cached estimates keep
/// matching the exact post-reshard state.
#[test]
fn reshard_swaps_the_generation_and_conserves_cached_mass() {
    let store = ShardedCatalog::new();
    register_columns(&store, true);
    // Skewed mass so balanced borders differ from the uniform plan.
    let skew: Vec<UpdateOp> = (0..2000).map(|i| UpdateOp::Insert(i % 50)).collect();
    store.apply("a", &skew).unwrap();
    let before = store.total_count("a").unwrap();
    let inv_before = store.read_stats().cache_invalidations;

    let moved = store.reshard("a").unwrap();
    assert!(moved, "skewed load left the borders unmoved");
    let stats = store.read_stats();
    assert!(
        stats.cache_invalidations > inv_before,
        "re-shard left the old generation (and its cache) in place: {stats:?}"
    );
    let after = store.total_count("a").unwrap();
    assert!(
        (after - before).abs() < 1e-6,
        "re-shard changed cached mass: {before} -> {after}"
    );
    assert_eq!(store.read_stats().slow_renders, 0);
}

/// Readers race a writer *and* a forcing re-sharder: every cached
/// estimate observed must still be a whole-epoch quantity (a stale cache
/// entry from the pre-swap generation would show a fractional or
/// off-epoch total), and the hot path never slow-renders.
#[test]
fn racing_reshard_never_exposes_a_stale_cache_entry() {
    let store = ShardedCatalog::new();
    register_columns(&store, true);
    store.commit(batch(0)).unwrap();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let store = &store;
            let done = &done;
            scope.spawn(move || {
                let mut reads = 0u64;
                while !done.load(Ordering::Acquire) || reads == 0 {
                    let set = store.snapshot_set(&["a", "b"]).unwrap();
                    let total = set.total_count("a").unwrap();
                    let expected = PER_BATCH as f64 * set.epoch() as f64;
                    assert!(
                        (total - expected).abs() < 1e-6,
                        "stale cached estimate: epoch {} total {total} (expected {expected})",
                        set.epoch()
                    );
                    let range = set.estimate_range("a", DOMAIN.0, DOMAIN.1).unwrap();
                    assert!(
                        (range - expected).abs() < 1e-6,
                        "stale cached range at epoch {}: {range} (expected {expected})",
                        set.epoch()
                    );
                    reads += 1;
                }
            });
        }
        {
            let store = &store;
            let done = &done;
            scope.spawn(move || loop {
                let finished = done.load(Ordering::Acquire);
                store.reshard("a").unwrap();
                store.reshard("b").unwrap();
                if finished {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            });
        }
        std::thread::scope(|writers| {
            let store = &store;
            writers.spawn(move || {
                for b in 1..150 {
                    // Drifting values keep the balanced borders moving.
                    store.commit(batch(b * 37)).unwrap();
                }
            });
        });
        done.store(true, Ordering::Release);
    });
    let stats = store.read_stats();
    assert_eq!(stats.slow_renders, 0, "{stats:?}");
    assert!(stats.fast_reads > 0, "{stats:?}");
}

/// Strategies for the bit-identity property: a value multiset plus probe
/// points inside (and straddling) the domain.
fn bit_identity_inputs() -> impl Strategy<Value = (Vec<i64>, i64, i64, i64)> {
    (
        prop::collection::vec(0i64..400, 1..300),
        -50i64..450,
        -50i64..450,
        -50i64..450,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cached estimates are **bit-identical** to uncached ones, at every
    /// epoch, on every column shape: the cache memoizes the exact f64
    /// the first computation produced, and the uncached arithmetic runs
    /// on the same immutable snapshot.
    #[test]
    fn cached_estimates_are_bit_identical_to_uncached(inputs in bit_identity_inputs()) {
        let (values, p, q, e) = inputs;
        let (lo, hi) = (p.min(q), p.max(q));
        for label in ["plan-less", "sharded"] {
            let store = ShardedCatalog::new();
            register_columns(&store, label == "sharded");
            // Two epochs: half the values per commit, probing after each.
            let mid = values.len() / 2;
            for chunk in [&values[..mid], &values[mid..]] {
                if chunk.is_empty() {
                    continue;
                }
                let ops: Vec<UpdateOp> = chunk.iter().map(|&v| UpdateOp::Insert(v)).collect();
                store.apply("a", &ops).unwrap();

                // Uncached ground truth: plain snapshot arithmetic.
                let snap = store.snapshot("a").unwrap();
                let plain_range = snap.estimate_range(lo, hi);
                let plain_eq = snap.estimate_eq(e);
                let plain_total = snap.total_count();

                // Probe twice so both the miss->fill and the hit path are
                // compared; every read must reproduce the exact bits.
                for pass in 0..2 {
                    let range = store.estimate_range("a", lo, hi).unwrap();
                    let eq = store.estimate_eq("a", e).unwrap();
                    let total = store.total_count("a").unwrap();
                    prop_assert_eq!(
                        range.to_bits(), plain_range.to_bits(),
                        "{}: pass {}: cached range {} != uncached {}",
                        label, pass, range, plain_range
                    );
                    prop_assert_eq!(
                        eq.to_bits(), plain_eq.to_bits(),
                        "{}: pass {}: cached eq {} != uncached {}",
                        label, pass, eq, plain_eq
                    );
                    prop_assert_eq!(
                        total.to_bits(), plain_total.to_bits(),
                        "{}: pass {}: cached total {} != uncached {}",
                        label, pass, total, plain_total
                    );
                }
            }
            let stats = store.read_stats();
            prop_assert_f(stats.cache_hits > 0, "cache never hit");
            prop_assert_f(stats.slow_renders == 0, "slow path engaged");
        }
    }
}

/// proptest's `prop_assert!` only works inside `proptest!`; this adapter
/// lets the closing checks read naturally.
fn prop_assert_f(cond: bool, msg: &str) {
    assert!(cond, "{msg}");
}
