//! Torn-tail recovery suite: the on-disk extension of
//! `tests/txn_torn_reads.rs`'s whole-epochs-only invariant.
//!
//! A changelog is built from a workload where every committed epoch
//! inserts exactly `OPS` values into *each* of two columns. The segment
//! file is then damaged — truncated at **every byte boundary**
//! (exhaustively), and bit-flipped at arbitrary positions (proptest) —
//! and reopened. The contract under test, for every damage pattern:
//!
//! * `DurableStore::open` either recovers to a clean **prefix of
//!   published epochs** or returns a typed error — it never panics;
//! * a recovered store never serves partial-epoch state: each
//!   registered column's mass is exactly `OPS * epoch` (epoch `k`
//!   contributed its full `OPS` inserts or nothing), both columns agree,
//!   and per-column accepted counts equal the epoch.
//!
//! Truncation inside the header region (a crash during log creation)
//! recovers to the empty store; truncation before a column's register
//! record recovers to a store that does not know the column yet — both
//! are valid prefixes of the history.

use dynamic_histograms::catalog::CatalogError;
use dynamic_histograms::prelude::*;
use proptest::prelude::*;
use std::fs;
use std::path::Path;

const OPS: u64 = 8;
const EPOCHS: u64 = 12;

fn opts() -> DurableOptions {
    DurableOptions {
        sync: SyncPolicy::Off,
        checkpoint_every: None,
        retain_generations: 2,
    }
}

fn config() -> ColumnConfig {
    ColumnConfig::new(AlgoSpec::Dc, MemoryBudget::from_kb(0.5)).with_seed(3)
}

/// Builds the reference changelog and returns the single segment file's
/// bytes.
fn reference_log(dir: &Path) -> Vec<u8> {
    {
        let store = DurableStore::open(dir, StoreKind::Sharded, opts()).unwrap();
        store.register("a", config()).unwrap();
        store.register("b", config()).unwrap();
        for e in 0..EPOCHS {
            let mut batch = WriteBatch::new();
            for i in 0..OPS as i64 {
                let v = (e as i64 * 37 + i * 13) % 200;
                batch.insert("a", v).insert("b", v);
            }
            store.commit(batch).unwrap();
        }
        assert_eq!(store.epoch(), EPOCHS);
    }
    let seg = dir.join(format!("wal-{:020}.seg", 0));
    fs::read(seg).unwrap()
}

/// Opens a store over `bytes` as its only segment and asserts the
/// whole-epochs contract; returns the recovered epoch (`None` for a
/// typed error).
fn open_and_check(bytes: &[u8], label: &str) -> Option<u64> {
    let dir = TempDir::new(label);
    fs::write(dir.path().join(format!("wal-{:020}.seg", 0)), bytes).unwrap();
    match DurableStore::open(dir.path(), StoreKind::Sharded, opts()) {
        Ok(store) => {
            let epoch = store.epoch();
            assert!(epoch <= EPOCHS, "recovered beyond the written history");
            for col in store.columns() {
                let col = col.as_str();
                // Whole epochs only: full batches or nothing, never a
                // torn one — and the counters agree with the mass.
                assert_eq!(
                    store.total_count(col).unwrap(),
                    (OPS * epoch) as f64,
                    "partial-epoch mass on '{col}' at epoch {epoch}"
                );
                assert_eq!(store.checkpoint(col).unwrap(), epoch);
            }
            // Both columns were committed in lockstep: if both exist
            // they must serve identical mass (a one-sided epoch would
            // break commit atomicity).
            if store.contains("a") && store.contains("b") {
                assert_eq!(
                    store.total_count("a").unwrap(),
                    store.total_count("b").unwrap()
                );
            } else if epoch > 0 {
                panic!("epochs recovered without both register records");
            }
            Some(epoch)
        }
        Err(DurableError::Wal(_)) | Err(DurableError::Recovery(_)) => None,
        Err(other) => panic!("unexpected error class: {other}"),
    }
}

/// Exhaustive: every truncation point either recovers a clean epoch
/// prefix or errors — and longer prefixes never recover fewer epochs.
#[test]
fn every_truncation_boundary_recovers_a_prefix_or_errors() {
    let full = TempDir::new("torn-ref");
    let bytes = reference_log(full.path());
    let mut last_epoch = 0;
    for cut in 0..=bytes.len() {
        if let Some(epoch) = open_and_check(&bytes[..cut], "torn-cut") {
            assert!(
                epoch >= last_epoch,
                "cut {cut}: recovered {epoch} epochs, shorter cut had {last_epoch}"
            );
            last_epoch = epoch;
        }
    }
    assert_eq!(last_epoch, EPOCHS, "the untruncated log must replay fully");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random bit flips anywhere in the file (header included): the
    /// checksum window turns tail damage into a truncated tail,
    /// mid-file damage (valid frames still follow) and header damage
    /// into typed errors — never a panic, never a torn epoch.
    #[test]
    fn random_bit_flips_never_tear_an_epoch(
        flips in prop::collection::vec((0usize..4096, 0u8..8), 1..4)
    ) {
        let full = TempDir::new("flip-ref");
        let mut bytes = reference_log(full.path());
        for (pos, bit) in flips {
            let pos = pos % bytes.len();
            bytes[pos] ^= 1 << bit;
        }
        open_and_check(&bytes, "torn-flip");
    }

    /// Flip + truncate combined: damage followed by a crash.
    #[test]
    fn flip_then_truncate_never_tears_an_epoch(
        pos in 0usize..4096,
        bit in 0u8..8,
        keep in 0usize..4096,
    ) {
        let full = TempDir::new("fliptrunc-ref");
        let mut bytes = reference_log(full.path());
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        bytes.truncate(keep % (bytes.len() + 1));
        open_and_check(&bytes, "torn-fliptrunc");
    }
}

/// Damage in a *sealed* segment must surface as a typed corruption
/// error — the torn-tail allowance is for the last segment only. (The
/// live store only keeps a sealed segment between `rotate` and
/// `remove_covered`, so the two-segment directory is crafted by
/// splitting the reference log at a frame boundary.)
#[test]
fn sealed_segment_damage_is_a_typed_error_not_a_truncation() {
    const HEADER: usize = 9;
    let full = TempDir::new("sealed-ref");
    let bytes = reference_log(full.path());

    // Walk the frame boundaries: [u32 len][u32 crc][payload].
    let mut boundaries = vec![HEADER];
    let mut at = HEADER;
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        at += 8 + len;
        boundaries.push(at);
    }
    let split = boundaries[boundaries.len() / 2];

    let dir = TempDir::new("torn-sealed");
    // First segment: the leading frames, with a torn tail (the same
    // 3-byte truncation the last-segment tests recover from).
    let mut first = bytes[..split].to_vec();
    first.truncate(first.len() - 3);
    fs::write(dir.path().join(format!("wal-{:020}.seg", 0)), &first).unwrap();
    // Second segment: a fresh header plus the remaining frames — its
    // presence seals the first.
    let mut second = bytes[..HEADER].to_vec();
    second.extend_from_slice(&bytes[split..]);
    fs::write(dir.path().join(format!("wal-{:020}.seg", 7)), &second).unwrap();

    match DurableStore::open(dir.path(), StoreKind::Sharded, opts()) {
        Err(DurableError::Wal(WalError::Corrupt { .. })) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// The error types on the trait surface: a durability failure arriving
/// through `ColumnStore` renders as `CatalogError::Durability`.
#[test]
fn durability_errors_have_display_and_trait_mapping() {
    let err = CatalogError::Durability("disk on fire".into());
    assert!(err.to_string().contains("disk on fire"));
    assert!(CatalogError::EpochEvicted(42).to_string().contains("42"));
}
