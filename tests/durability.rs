//! Durability acceptance suite: a `DurableStore` over a plan-less column
//! (one shard, one lock) and a sharded one, fed hundreds of committed
//! epochs with a mid-stream re-shard, must reopen from disk to
//! **bit-identical** estimates —
//! pure-log replay re-runs the exact live code paths, so every
//! `estimate_range` / `estimate_eq` / `total_count` probe compares by
//! `f64::to_bits`, not by tolerance. Time travel gets the same
//! treatment: `snapshot_set_at` on a retained past epoch must serve the
//! bits readers saw live at that epoch, before *and* after a recovery.
//!
//! Logs in retired formats are covered too: a log whose plans and
//! rebuild records say "channel ingestion" replays bit-identically as
//! the one design left, and a directory stamped with the retired
//! single-lock store tag is refused with a typed error.
//!
//! Checkpoint-crossing recovery is covered separately with the
//! contract `docs/DURABILITY.md` actually makes for it: exact epoch,
//! exact accepted counts, exact (integer) mass — but a rebuilt bucket
//! layout.
//!
//! All disk state lives in per-test unique `TempDir`s under the OS temp
//! root (parallel-safe, removed on drop).

use dynamic_histograms::catalog::CatalogError;
use dynamic_histograms::prelude::*;
use dynamic_histograms::wal::record::read_frame;
use dynamic_histograms::wal::{write_framed, Frame, WalRecord};
use std::path::{Path, PathBuf};

const COL: &str = "serve";
const DOMAIN: (i64, i64) = (0, 9_999);
const EPOCHS: u64 = 220;
const OPS_PER_EPOCH: u64 = 32;

#[derive(Clone, Copy)]
enum Design {
    /// A column registered without a plan: one shard behind one lock.
    PlanLess,
    /// An 8-shard column.
    Sharded,
    /// The sharded column, reopened from a log rewritten the way channel
    /// ingestion used to log it (see [`mark_logged_channel`]).
    LegacyChannel,
}

impl Design {
    fn config(self) -> ColumnConfig {
        let base = ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0)).with_seed(7);
        let plan = ShardPlan::new(DOMAIN.0, DOMAIN.1, 8).unwrap();
        match self {
            Design::PlanLess => base,
            Design::Sharded | Design::LegacyChannel => base.with_plan(plan),
        }
    }

    /// Turns the log the live run wrote into the one this design reopens.
    fn before_reopen(self, dir: &Path) {
        if let Design::LegacyChannel = self {
            mark_logged_channel(dir);
        }
    }
}

/// The changelog segment files in `dir`.
fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().and_then(|e| e.to_str()) == Some("seg"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no segments in {}", dir.display());
    paths
}

/// Bytes before a segment's first record: the 8-byte magic, then the
/// store-kind tag.
const SEGMENT_HEADER: usize = 9;

/// Rewrites `dir`'s changelog the way a store with channel ingestion
/// wrote it: every register record's plan carries the retired
/// ingestion-mode byte set to 1, and every rebuild record carries the
/// retired channel delta (flag bit 8, value 1).
fn mark_logged_channel(dir: &Path) {
    let mut marked = 0;
    for path in segments(dir) {
        let bytes = std::fs::read(&path).unwrap();
        let mut out = bytes[..SEGMENT_HEADER].to_vec();
        let mut at = SEGMENT_HEADER;
        while let Frame::Record { record, next } = read_frame(&bytes, at) {
            let mut payload = bytes[at + 8..next].to_vec();
            match record {
                WalRecord::Register { column, config } if config.plan.is_some() => {
                    // kind, column, spec, memory, seed, flags, then the
                    // plan's lo, hi and shards ahead of the mode byte.
                    let byte = 1 + 4 + column.len() + 4 + config.spec.len() + 17 + 24;
                    assert_eq!(payload[byte], 0, "plans are logged with mode byte 0");
                    payload[byte] = 1;
                    marked += 1;
                }
                WalRecord::Rebuild { column, .. } => {
                    // kind, column, barrier and seq precede the flags;
                    // the channel delta is the last field.
                    payload[1 + 4 + column.len() + 16] |= 8;
                    payload.push(1);
                    marked += 1;
                }
                _ => {}
            }
            write_framed(&mut out, &payload).unwrap();
            at = next;
        }
        assert_eq!(at, bytes.len(), "{} ends on a whole record", path.display());
        std::fs::write(&path, out).unwrap();
    }
    assert!(marked > 0, "nothing in the log to mark");
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Epoch `e`'s batch: `OPS_PER_EPOCH` skewed inserts (three quarters of
/// the mass in the bottom fifth of the domain, so equal-width borders
/// are genuinely unbalanced and the mid-stream re-shard moves them).
fn epoch_ops(e: u64) -> Vec<UpdateOp> {
    let mut rng = e.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..OPS_PER_EPOCH)
        .map(|_| {
            let r = lcg(&mut rng);
            let v = if r % 4 != 0 {
                (r % 2_000) as i64
            } else {
                2_000 + (r % 8_000) as i64
            };
            UpdateOp::Insert(v)
        })
        .collect()
}

/// Every estimate surface on a fixed probe grid, as raw bits.
fn probe_bits(store: &dyn ColumnStore) -> Vec<u64> {
    let mut bits = Vec::new();
    for (a, b) in [
        (0, 9_999),
        (0, 499),
        (500, 1_999),
        (1_500, 7_000),
        (9_000, 9_999),
    ] {
        bits.push(store.estimate_range(COL, a, b).unwrap().to_bits());
    }
    for v in [0, 17, 1_000, 1_999, 5_000, 9_999] {
        bits.push(store.estimate_eq(COL, v).unwrap().to_bits());
    }
    bits.push(store.total_count(COL).unwrap().to_bits());
    bits
}

/// Same probes read off an epoch-pinned set.
fn probe_set_bits(set: &SnapshotSet) -> Vec<u64> {
    let mut bits = Vec::new();
    for (a, b) in [
        (0, 9_999),
        (0, 499),
        (500, 1_999),
        (1_500, 7_000),
        (9_000, 9_999),
    ] {
        bits.push(set.estimate_range(COL, a, b).unwrap().to_bits());
    }
    for v in [0, 17, 1_000, 1_999, 5_000, 9_999] {
        bits.push(set.estimate_eq(COL, v).unwrap().to_bits());
    }
    bits.push(set.total_count(COL).unwrap().to_bits());
    bits
}

/// The tentpole acceptance criterion, per design: ≥200 committed epochs
/// with a mid-stream re-shard, drop, `open()` — bit-identical estimates
/// at the recovered epoch, and bit-identical time travel to every
/// retained past epoch.
fn recovery_is_bit_identical(design: Design, label: &str) {
    let dir = TempDir::new(label);
    let opts = DurableOptions {
        sync: SyncPolicy::Batched(16),
        checkpoint_every: None, // pure-log replay: the bit-identical path
        retain_generations: 6,
    };

    let (live_bits, live_ring, moved) = {
        let store = DurableStore::open(dir.path(), StoreKind::Sharded, opts).unwrap();
        store.register(COL, design.config()).unwrap();
        let mut moved = false;
        for e in 0..EPOCHS {
            let mut batch = WriteBatch::new();
            batch.extend(COL, epoch_ops(e));
            let epoch = store.commit(batch).unwrap();
            assert_eq!(epoch, e + 1);
            if e == EPOCHS / 2 {
                moved = store.reshard(COL).unwrap();
            }
        }
        assert_eq!(store.epoch(), EPOCHS);
        let ring: Vec<(u64, Vec<u64>)> = store
            .retained_epochs()
            .into_iter()
            .map(|e| {
                let set = store.snapshot_set_at(&[COL], e).unwrap();
                assert_eq!(set.epoch(), e);
                (e, probe_set_bits(&set))
            })
            .collect();
        assert_eq!(ring.len(), 6);
        (probe_bits(&store), ring, moved)
    }; // drop: final sync

    // Sharded designs must actually have exercised the re-shard replay.
    if !matches!(design, Design::PlanLess) {
        assert!(moved, "{label}: skewed stream should move the borders");
    }

    design.before_reopen(dir.path());
    let store = DurableStore::open(dir.path(), StoreKind::Sharded, opts).unwrap();
    assert_eq!(store.epoch(), EPOCHS);
    assert_eq!(store.checkpoint(COL).unwrap(), EPOCHS);
    assert_eq!(store.spec(COL).unwrap(), AlgoSpec::Dc);
    assert_eq!(
        probe_bits(&store),
        live_bits,
        "{label}: recovered estimates differ"
    );

    // Replay repopulated the time-travel ring: every retained past epoch
    // serves the exact bits it served live.
    for (epoch, bits) in &live_ring {
        let set = store.snapshot_set_at(&[COL], *epoch).unwrap();
        assert_eq!(set.epoch(), *epoch);
        assert_eq!(
            &probe_set_bits(&set),
            bits,
            "{label}: time travel to {epoch} differs"
        );
    }
}

#[test]
fn single_lock_recovery_is_bit_identical() {
    recovery_is_bit_identical(Design::PlanLess, "dur-single");
}

#[test]
fn sharded_locked_recovery_is_bit_identical() {
    recovery_is_bit_identical(Design::Sharded, "dur-locked");
}

/// A log that says "channel" replays as the one design left.
#[test]
fn sharded_channel_recovery_is_bit_identical() {
    recovery_is_bit_identical(Design::LegacyChannel, "dur-channel");
}

#[test]
fn time_travel_pins_past_epochs_and_evicts_beyond_the_ring() {
    let dir = TempDir::new("dur-travel");
    let opts = DurableOptions {
        sync: SyncPolicy::Off,
        checkpoint_every: None,
        retain_generations: 4,
    };
    let store = DurableStore::open(dir.path(), StoreKind::Sharded, opts).unwrap();
    store.register(COL, Design::PlanLess.config()).unwrap();
    for e in 0..10u64 {
        store.apply(COL, &epoch_ops(e)).unwrap();
    }
    assert_eq!(store.retained_epochs(), vec![7, 8, 9, 10]);

    // A retained past epoch serves exactly its prefix of the stream.
    let set = store.snapshot_set_at(&[COL], 8).unwrap();
    assert_eq!(set.epoch(), 8);
    assert_eq!(set.total_count(COL).unwrap(), (8 * OPS_PER_EPOCH) as f64);
    // ... and is immutable: still valid after further commits push the
    // ring past epoch 7 (now evicted).
    store.apply(COL, &epoch_ops(10)).unwrap();
    assert_eq!(set.total_count(COL).unwrap(), (8 * OPS_PER_EPOCH) as f64);
    assert_eq!(store.retained_epochs(), vec![8, 9, 10, 11]);

    assert_eq!(
        store.snapshot_set_at(&[COL], 7).unwrap_err(),
        CatalogError::EpochEvicted(7)
    );
    assert_eq!(
        store.snapshot_set_at(&[COL], 99).unwrap_err(),
        CatalogError::EpochEvicted(99)
    );
    assert_eq!(
        store.snapshot_set_at(&["ghost"], 11).unwrap_err(),
        CatalogError::UnknownColumn("ghost".into())
    );

    // Explicit GC narrows the ring without touching newer epochs.
    assert_eq!(store.gc_retained(10), 2);
    assert_eq!(store.retained_epochs(), vec![10, 11]);
    assert_eq!(
        store.snapshot_set_at(&[COL], 9).unwrap_err(),
        CatalogError::EpochEvicted(9)
    );
    assert!(store.snapshot_set_at(&[COL], 10).is_ok());
}

#[test]
fn plain_stores_only_pin_the_current_epoch() {
    let cat = ShardedCatalog::new();
    cat.register(COL, Design::PlanLess.config()).unwrap();
    cat.apply(COL, &epoch_ops(0)).unwrap();
    assert_eq!(cat.snapshot_set_at(&[COL], 1).unwrap().epoch(), 1);
    assert_eq!(
        cat.snapshot_set_at(&[COL], 0).unwrap_err(),
        CatalogError::EpochEvicted(0)
    );
}

/// Recovery through a checkpoint: the cadence rotates and truncates the
/// changelog (so old segments really are gone), and `open()` restores
/// exact epoch, accepted count and mass, then replays the tail.
#[test]
fn checkpoint_cadence_truncates_and_recovers_exact_counts() {
    let dir = TempDir::new("dur-ckpt");
    let opts = DurableOptions {
        sync: SyncPolicy::Batched(32),
        checkpoint_every: Some(50),
        retain_generations: 2,
    };
    {
        let store = DurableStore::open(dir.path(), StoreKind::Sharded, opts).unwrap();
        store.register(COL, Design::Sharded.config()).unwrap();
        for e in 0..EPOCHS {
            let mut batch = WriteBatch::new();
            batch.extend(COL, epoch_ops(e));
            store.commit(batch).unwrap();
        }
        // Checkpoints fired at 50/100/150/200; pruning retains segments
        // back to the *oldest* on-disk checkpoint (150), so the fallback
        // checkpoint keeps a contiguous log tail: the 151.. segment plus
        // the active one.
        assert_eq!(store.segment_count(), 2);
    }
    let store = DurableStore::open(dir.path(), StoreKind::Sharded, opts).unwrap();
    assert_eq!(store.epoch(), EPOCHS);
    assert_eq!(store.checkpoint(COL).unwrap(), EPOCHS);
    // Integer stream: the synthesized restore re-inserts exactly
    // `round(total)` ops, so the recovered mass matches the stream to
    // f64 accumulation error (bucket split/merge redistributes counts
    // in floating point — live stores carry the same epsilon).
    let total = store.total_count(COL).unwrap();
    assert!(
        (total - (EPOCHS * OPS_PER_EPOCH) as f64).abs() < 1e-6,
        "recovered mass {total} drifted"
    );
    // The store keeps serving and checkpointing after recovery.
    store.apply(COL, &epoch_ops(EPOCHS)).unwrap();
    assert_eq!(store.epoch(), EPOCHS + 1);
    store.checkpoint_now().unwrap();
    assert_eq!(store.segment_count(), 2);
}

/// Columns registered mid-stream recover with their own accepted
/// counts, and a directory stamped with the retired single-lock store
/// tag (1) is refused with a typed error, not replayed.
#[test]
fn mid_stream_registration_and_kind_mismatch() {
    let dir = TempDir::new("dur-register");
    let opts = DurableOptions {
        sync: SyncPolicy::PerCommit,
        checkpoint_every: None,
        retain_generations: 2,
    };
    {
        let store = DurableStore::open(dir.path(), StoreKind::Sharded, opts).unwrap();
        store.register("early", Design::PlanLess.config()).unwrap();
        for e in 0..5 {
            store.apply("early", &epoch_ops(e)).unwrap();
        }
        store.register("late", Design::PlanLess.config()).unwrap();
        let mut batch = WriteBatch::new();
        batch.extend("early", epoch_ops(5));
        batch.extend("late", epoch_ops(6));
        store.commit(batch).unwrap();
        assert_eq!(
            store
                .register("early", Design::PlanLess.config())
                .unwrap_err(),
            CatalogError::DuplicateColumn("early".into())
        );
    }
    {
        let store = DurableStore::open(dir.path(), StoreKind::Sharded, opts).unwrap();
        assert_eq!(store.columns(), ["early", "late"]);
        assert_eq!(store.epoch(), 6);
        assert_eq!(store.checkpoint("early").unwrap(), 6);
        assert_eq!(store.checkpoint("late").unwrap(), 1);
    }
    // The directory is bound to its store kind: stamp the retired
    // single-lock tag into the segment headers and the open is refused.
    for path in segments(dir.path()) {
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[SEGMENT_HEADER - 1], StoreKind::Sharded.tag());
        bytes[SEGMENT_HEADER - 1] = 1;
        std::fs::write(&path, bytes).unwrap();
    }
    match DurableStore::open(dir.path(), StoreKind::Sharded, opts) {
        Err(DurableError::Wal(WalError::StoreKindMismatch { .. })) => {}
        other => panic!("expected StoreKindMismatch, got {other:?}"),
    }
}

/// A log carrying the retired bare re-shard record (kind 3) is refused
/// with a typed corruption error naming the retired kind — never
/// replayed, never a panic.
#[test]
fn retired_reshard_record_is_a_typed_error() {
    let dir = TempDir::new("dur-retired-kind");
    let opts = DurableOptions {
        sync: SyncPolicy::PerCommit,
        checkpoint_every: None,
        retain_generations: 2,
    };
    {
        let store = DurableStore::open(dir.path(), StoreKind::Sharded, opts).unwrap();
        store.register(COL, Design::Sharded.config()).unwrap();
        for e in 0..3 {
            store.apply(COL, &epoch_ops(e)).unwrap();
        }
    }
    // Kind 3: column name, then the barrier epoch.
    let mut payload = vec![3u8];
    payload.extend_from_slice(&(COL.len() as u32).to_le_bytes());
    payload.extend_from_slice(COL.as_bytes());
    payload.extend_from_slice(&3u64.to_le_bytes());
    let last = segments(dir.path()).pop().unwrap();
    let mut bytes = std::fs::read(&last).unwrap();
    write_framed(&mut bytes, &payload).unwrap();
    std::fs::write(&last, bytes).unwrap();

    match DurableStore::open(dir.path(), StoreKind::Sharded, opts) {
        Err(DurableError::Wal(WalError::Corrupt { why, .. })) => {
            assert!(why.contains("retired record kind 3"), "{why}");
        }
        other => panic!("expected a typed corruption error, got {other:?}"),
    }
}

/// Bit rot in the newest checkpoint file: recovery must fall back to
/// the previous checkpoint — whose log tail segment pruning retains —
/// and replay forward to the exact pre-damage state.
#[test]
fn damaged_newest_checkpoint_recovers_via_fallback() {
    let dir = TempDir::new("dur-ckpt-fallback");
    let opts = DurableOptions {
        sync: SyncPolicy::Batched(32),
        checkpoint_every: Some(50),
        retain_generations: 2,
    };
    {
        let store = DurableStore::open(dir.path(), StoreKind::Sharded, opts).unwrap();
        store.register(COL, Design::Sharded.config()).unwrap();
        for e in 0..EPOCHS {
            let mut batch = WriteBatch::new();
            batch.extend(COL, epoch_ops(e));
            store.commit(batch).unwrap();
        }
    }
    // Checkpoints 150 and 200 are on disk; rot a payload byte in the
    // newest so its CRC fails.
    let newest = dir.path().join(format!("ckpt-{:020}.ck", 200));
    let mut buf = std::fs::read(&newest).unwrap();
    let at = buf.len() - 3;
    buf[at] ^= 0x10;
    std::fs::write(&newest, &buf).unwrap();

    let store = DurableStore::open(dir.path(), StoreKind::Sharded, opts).unwrap();
    assert_eq!(store.epoch(), EPOCHS);
    assert_eq!(store.checkpoint(COL).unwrap(), EPOCHS);
    let total = store.total_count(COL).unwrap();
    assert!(
        (total - (EPOCHS * OPS_PER_EPOCH) as f64).abs() < 1e-6,
        "fallback-recovered mass {total} drifted"
    );
}

/// Mid-stream **shape** changes — a shard-count growth and an online
/// DC→DADO algorithm migration — recover bit-identically through pure
/// log replay: the `Rebuild` records carry only the plan deltas, and
/// replaying them at their exact barriers reproduces the same composed
/// spans, the same re-ingestion, the same everything.
fn rebuild_recovery_is_bit_identical(design: Design, label: &str) {
    let dir = TempDir::new(label);
    let opts = DurableOptions {
        sync: SyncPolicy::Batched(16),
        checkpoint_every: None, // pure-log replay: the bit-identical path
        retain_generations: 4,
    };

    let (live_bits, live_shape) = {
        let store = DurableStore::open(dir.path(), StoreKind::Sharded, opts).unwrap();
        store.register(COL, design.config()).unwrap();
        for e in 0..EPOCHS {
            let mut batch = WriteBatch::new();
            batch.extend(COL, epoch_ops(e));
            store.commit(batch).unwrap();
            if e == EPOCHS / 3 {
                // Grow the shard count 8 → 16 behind the epoch barrier.
                assert!(store
                    .rebuild(COL, RebuildPlan::new().with_shards(16))
                    .unwrap());
            }
            if e == 2 * EPOCHS / 3 {
                // Migrate the algorithm online, keeping the new count.
                assert!(store
                    .rebuild(COL, RebuildPlan::new().with_spec(AlgoSpec::Dado))
                    .unwrap());
            }
        }
        let shape = store.column_shape(COL).unwrap().unwrap();
        assert_eq!(shape.shards, 16);
        assert_eq!(shape.spec, AlgoSpec::Dado);
        (probe_bits(&store), shape)
    }; // drop: final sync

    design.before_reopen(dir.path());
    let store = DurableStore::open(dir.path(), StoreKind::Sharded, opts).unwrap();
    assert_eq!(store.epoch(), EPOCHS);
    assert_eq!(
        probe_bits(&store),
        live_bits,
        "{label}: recovered estimates differ after shape changes"
    );
    // The live shape came back; the *registration* spec is frozen by
    // contract (`spec()` documents itself as the registered algorithm).
    assert_eq!(store.column_shape(COL).unwrap().unwrap(), live_shape);
    assert_eq!(store.spec(COL).unwrap(), AlgoSpec::Dc);
}

#[test]
fn sharded_locked_rebuild_recovery_is_bit_identical() {
    rebuild_recovery_is_bit_identical(Design::Sharded, "dur-rebuild-locked");
}

/// Rebuild records carrying the retired channel delta replay exactly
/// like the ones logged today.
#[test]
fn sharded_channel_rebuild_recovery_is_bit_identical() {
    rebuild_recovery_is_bit_identical(Design::LegacyChannel, "dur-rebuild-channel");
}

/// A shape change must also survive **checkpoint**-based recovery:
/// once the cadence prunes the segments holding the `Rebuild` record,
/// the checkpoint's shape annotation is the only trace of it, and
/// `open()` must re-apply it before seeding mass so the synthesized
/// restore routes through the rebuilt borders.
#[test]
fn rebuilt_shape_survives_checkpoint_pruning() {
    let dir = TempDir::new("dur-rebuild-ckpt");
    let opts = DurableOptions {
        sync: SyncPolicy::Batched(32),
        checkpoint_every: Some(50),
        retain_generations: 2,
    };
    {
        let store = DurableStore::open(dir.path(), StoreKind::Sharded, opts).unwrap();
        store.register(COL, Design::Sharded.config()).unwrap();
        for e in 0..EPOCHS {
            let mut batch = WriteBatch::new();
            batch.extend(COL, epoch_ops(e));
            store.commit(batch).unwrap();
            if e == 20 {
                // Early enough that checkpoint pruning discards the
                // segment holding this record long before the end.
                assert!(store
                    .rebuild(
                        COL,
                        RebuildPlan::new()
                            .with_shards(16)
                            .with_spec(AlgoSpec::Dado)
                            .with_memory(MemoryBudget::from_kb(2.0)),
                    )
                    .unwrap());
            }
        }
        assert_eq!(store.segment_count(), 2);
    }
    let store = DurableStore::open(dir.path(), StoreKind::Sharded, opts).unwrap();
    assert_eq!(store.epoch(), EPOCHS);
    let shape = store.column_shape(COL).unwrap().unwrap();
    assert_eq!(shape.shards, 16);
    assert_eq!(shape.spec, AlgoSpec::Dado);
    assert_eq!(shape.memory, MemoryBudget::from_kb(2.0));
    let total = store.total_count(COL).unwrap();
    assert!(
        (total - (EPOCHS * OPS_PER_EPOCH) as f64).abs() < 1e-6,
        "recovered mass {total} drifted across the rebuilt checkpoint"
    );
    // The recovered store keeps serving — and keeps its shape — after
    // further commits and another checkpoint round-trip.
    store.apply(COL, &epoch_ops(EPOCHS)).unwrap();
    store.checkpoint_now().unwrap();
    assert_eq!(store.column_shape(COL).unwrap().unwrap(), shape);
}

/// Back-to-back shape changes with no commit between them all log the
/// **same barrier** (rebuilds publish no epoch); recovery must replay
/// every one of them, in order, to the identical final state. Each
/// record carries its own ordinal precisely so the stack stays
/// distinguishable — here the leader's own replay proves the records
/// round-trip and re-apply one by one.
#[test]
fn same_barrier_rebuild_stack_recovers_bit_identically() {
    let dir = TempDir::new("dur-same-barrier");
    let opts = DurableOptions {
        sync: SyncPolicy::Batched(16),
        checkpoint_every: None, // pure-log replay: the bit-identical path
        retain_generations: 2,
    };
    let (live_bits, live_shape) = {
        let store = DurableStore::open(dir.path(), StoreKind::Sharded, opts).unwrap();
        store.register(COL, Design::Sharded.config()).unwrap();
        for e in 0..EPOCHS / 2 {
            let mut batch = WriteBatch::new();
            batch.extend(COL, epoch_ops(e));
            store.commit(batch).unwrap();
        }
        // Three shape changes, one barrier: the skewed mass guarantees
        // the border move is a move, then the count and algorithm
        // change on top of it without an intervening commit.
        assert!(store.reshard(COL).unwrap());
        assert!(store
            .rebuild(COL, RebuildPlan::new().with_shards(16))
            .unwrap());
        assert!(store
            .rebuild(COL, RebuildPlan::new().with_spec(AlgoSpec::Dado))
            .unwrap());
        for e in EPOCHS / 2..EPOCHS {
            let mut batch = WriteBatch::new();
            batch.extend(COL, epoch_ops(e));
            store.commit(batch).unwrap();
        }
        (
            probe_bits(&store),
            store.column_shape(COL).unwrap().unwrap(),
        )
    }; // drop: final sync

    let store = DurableStore::open(dir.path(), StoreKind::Sharded, opts).unwrap();
    assert_eq!(store.epoch(), EPOCHS);
    assert_eq!(
        probe_bits(&store),
        live_bits,
        "recovered estimates differ after a same-barrier rebuild stack"
    );
    let shape = store.column_shape(COL).unwrap().unwrap();
    assert_eq!(shape.shards, 16);
    assert_eq!(shape.spec, AlgoSpec::Dado);
    assert_eq!(shape, live_shape);
}

/// The autoscale rate window must close at each *judgment*, not at each
/// generation swap: shard-load counters are cumulative per generation,
/// so a judged skew rebalance that resolves to unchanged borders (no
/// swap, counters keep accumulating) must not let the next judgment
/// count the same ops again and scale up on a throughput burst that
/// never happened.
#[test]
fn autoscale_window_is_not_inflated_by_no_swap_judgments() {
    let dir = TempDir::new("dur-autoscale-window");
    let opts = DurableOptions {
        sync: SyncPolicy::Off,
        checkpoint_every: None,
        retain_generations: 2,
    };
    let store = DurableStore::open(dir.path(), StoreKind::Sharded, opts).unwrap();
    // A two-value domain pins the borders: a 2-shard rebalance can only
    // resolve to the equal-width cuts it already has, so every skew
    // judgment below decides a plan that never swaps the generation.
    let config = ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0))
        .with_seed(7)
        .with_plan(ShardPlan::new(0, 1, 2).unwrap())
        .with_autoscale(AutoscalePolicy {
            min_shards: 2,
            max_shards: 8,
            scale_up_rate: 6,
            scale_down_rate: 0,
            skew_threshold: 1.4,
            min_interval_epochs: 1,
            min_load: 1,
        });
    store.register(COL, config).unwrap();

    // 4 skewed ops per epoch: rate 4/epoch, below the scale-up gate of
    // 6 — but the skew gate fires every epoch. A window that only
    // resets on a swap would see a cumulative 8, 12, 16, ... ops over
    // "one epoch" and scale up by the second judgment.
    for _ in 0..6 {
        let ops = [
            UpdateOp::Insert(0),
            UpdateOp::Insert(0),
            UpdateOp::Insert(0),
            UpdateOp::Insert(1),
        ];
        store.apply(COL, &ops).unwrap();
        assert_eq!(
            store.column_shape(COL).unwrap().unwrap().shards,
            2,
            "a no-swap judgment inflated the next rate window"
        );
    }

    // Positive control: a genuine 8-op epoch clears the gate and the
    // same policy scales the column 2 -> 4.
    let burst: Vec<UpdateOp> = (0..8).map(|i| UpdateOp::Insert(i % 2)).collect();
    store.apply(COL, &burst).unwrap();
    assert_eq!(store.column_shape(COL).unwrap().unwrap().shards, 4);
}

/// Policy registration rejects an autoscale policy without rate
/// hysteresis: with `scale_down_rate >= scale_up_rate` (and scale-up
/// judged first) every window above the up-gate doubles the shard
/// count and no window can ever halve it. The decorator hands the full
/// config to its inner store, whose registration makes the check.
#[test]
fn autoscale_registration_requires_rate_hysteresis() {
    let bad = ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(1.0))
        .with_plan(ShardPlan::new(DOMAIN.0, DOMAIN.1, 4).unwrap())
        .with_autoscale(AutoscalePolicy {
            scale_up_rate: 64,
            scale_down_rate: 64,
            ..AutoscalePolicy::default()
        });

    let sharded = ShardedCatalog::new();
    assert!(matches!(
        sharded.register(COL, bad),
        Err(CatalogError::InvalidShardPlan(_))
    ));

    let dir = TempDir::new("dur-autoscale-validate");
    let durable =
        DurableStore::open(dir.path(), StoreKind::Sharded, DurableOptions::default()).unwrap();
    assert!(matches!(
        durable.register(COL, bad),
        Err(CatalogError::InvalidShardPlan(_))
    ));
    // Nothing was logged for the rejected column: a reopen still works
    // and still does not know it.
    drop(durable);
    let durable =
        DurableStore::open(dir.path(), StoreKind::Sharded, DurableOptions::default()).unwrap();
    assert!(!durable.contains(COL));
}

/// The restored `updates` telemetry counter is the column's historical
/// op count (inserts *and* deletes), carried through the checkpoint —
/// not a figure synthesized from the surviving mass.
#[test]
fn recovered_updates_counter_is_historical() {
    let dir = TempDir::new("dur-updates");
    let opts = DurableOptions {
        sync: SyncPolicy::PerCommit,
        checkpoint_every: None,
        retain_generations: 2,
    };
    {
        let store = DurableStore::open(dir.path(), StoreKind::Sharded, opts).unwrap();
        store.register(COL, Design::PlanLess.config()).unwrap();
        // 60 inserts then 20 deletes: 80 historical ops, net mass 40.
        for e in 0..3 {
            let ops: Vec<UpdateOp> = (0..20).map(|i| UpdateOp::Insert(e * 100 + i)).collect();
            store.apply(COL, &ops).unwrap();
        }
        let deletes: Vec<UpdateOp> = (0..20).map(UpdateOp::Delete).collect();
        store.apply(COL, &deletes).unwrap();
        store.checkpoint_now().unwrap();
    }
    let store = DurableStore::open(dir.path(), StoreKind::Sharded, opts).unwrap();
    let snap = store.snapshot(COL).unwrap();
    assert_eq!(snap.epoch(), 4);
    assert_eq!(snap.checkpoint(), 4);
    assert_eq!(snap.updates(), 80);
    let total = store.total_count(COL).unwrap();
    assert!((total - 40.0).abs() < 1e-6, "net mass {total} drifted");
}

/// A rebuild logged after a checkpoint but at the checkpoint's own epoch
/// (rebuilds publish no epoch) is not covered by that checkpoint: its
/// ordinal is above the checkpoint's `rebuild_seq`. A reopened leader
/// must replay it exactly as a follower on the same directory does, so
/// both agree with the live leader on shape, ordinal and mass.
#[test]
fn rebuild_at_the_checkpoint_epoch_survives_reopen() {
    for spec in [AlgoSpec::Dc, AlgoSpec::Dado] {
        let dir = TempDir::new("dur-rebuild-at-ckpt");
        let opts = DurableOptions {
            sync: SyncPolicy::Off,
            checkpoint_every: None,
            retain_generations: 2,
        };
        let config = ColumnConfig::new(spec, MemoryBudget::from_kb(1.0))
            .with_seed(11)
            .with_plan(ShardPlan::new(0, 999, 4).unwrap());
        let skewed = |e: i64| -> Vec<UpdateOp> {
            (0..40)
                .map(|i| UpdateOp::Insert((e * 13 + i * 7) % 250))
                .collect()
        };
        let (live_shape, live_seq, live_total) = {
            let leader = DurableStore::open(dir.path(), StoreKind::Sharded, opts).unwrap();
            leader.register(COL, config).unwrap();
            for e in 0..10 {
                leader.apply(COL, &skewed(e)).unwrap();
            }
            leader.checkpoint_now().unwrap();
            assert!(leader
                .rebuild(COL, RebuildPlan::new().with_shards(8))
                .unwrap());
            for e in 10..20 {
                leader.apply(COL, &skewed(e)).unwrap();
            }
            (
                leader.column_shape(COL).unwrap().unwrap(),
                leader.rebuild_seq(COL).unwrap(),
                leader.total_count(COL).unwrap(),
            )
        };
        assert_eq!(live_shape.shards, 8);
        assert_eq!(live_seq, 1);

        let follower = Follower::open(dir.path(), StoreKind::Sharded).unwrap();
        follower.poll().unwrap();
        let leader = DurableStore::open(dir.path(), StoreKind::Sharded, opts).unwrap();
        for (name, store) in [
            ("reopened leader", &leader as &dyn ColumnStore),
            ("follower", &follower),
        ] {
            assert_eq!(store.epoch(), 20, "{spec}: {name}");
            assert_eq!(
                store.column_shape(COL).unwrap().unwrap(),
                live_shape,
                "{spec}: {name} lost the rebuild at the checkpoint epoch"
            );
            assert_eq!(store.rebuild_seq(COL).unwrap(), live_seq, "{spec}: {name}");
            let total = store.total_count(COL).unwrap();
            assert!(
                (total - live_total).abs() < 1e-6,
                "{spec}: {name} mass {total}"
            );
        }
        // Both replayed the same checkpoint and tail by the same rule.
        let bits = |store: &dyn ColumnStore| -> Vec<(u64, u64, u64)> {
            let snap = store.snapshot(COL).unwrap();
            snap.spans()
                .iter()
                .map(|s| (s.lo.to_bits(), s.hi.to_bits(), s.count.to_bits()))
                .collect()
        };
        assert_eq!(bits(&leader), bits(&follower), "{spec}");
    }
}
