//! The durability layer under the catalog serving stack: an append-only
//! **epoch changelog** (write-ahead log), **checkpoint** files, and the
//! primitives `dh_catalog`'s `DurableStore` recovers from.
//!
//! The epoch-stamped commit pipeline of `dh_catalog` already *is* a
//! logical log — every published `WriteBatch` is one totally-ordered,
//! atomically-visible state transition. This crate persists exactly that
//! sequence:
//!
//! * [`record`] — [`WalRecord`]: one register / commit / rebuild event,
//!   serialized in a hand-rolled, checksummed, length-prefixed binary
//!   format (the workspace vendors no serde; the format is ~100 lines of
//!   explicit little-endian codec instead, documented in
//!   `docs/DURABILITY.md`).
//! * [`segment`] — [`Wal`]: segmented append-only files with a
//!   configurable fsync [`SyncPolicy`], torn-tail truncation on open,
//!   rotation at checkpoint boundaries, and removal of segments fully
//!   covered by a checkpoint; plus the [`Checkpoint`] file codec
//!   (written via temp-file + atomic rename).
//! * [`tail`] — [`TailReader`]: the read-only counterpart of
//!   [`Wal::open`] for **followers** that tail a changelog directory
//!   someone else is writing. It re-polls torn tails and half-rotated
//!   segments instead of repairing them, never deletes or truncates,
//!   and reports pruning-under-the-reader as a typed condition so a
//!   replica can fall back to a checkpoint (`docs/REPLICATION.md`).
//! * [`tmp`] — [`TempDir`], the per-test unique scratch directory every
//!   disk-touching test and bench in the workspace goes through
//!   (parallel-safe, removed on drop).
//!
//! This crate knows nothing about histograms beyond
//! [`dh_core::BucketSpan`] and [`dh_core::UpdateOp`]; the mapping
//! between live catalog state and log records lives in
//! `dh_catalog::durable`, which sits on top.
//!
//! # Corruption taxonomy
//!
//! Recovery distinguishes two failure shapes, and the distinction is the
//! crate's central contract (proven byte-by-byte by the torn-tail
//! proptest in `tests/wal_torn_tail.rs`):
//!
//! * a **torn tail** — the *last* segment ends mid-record, or its final
//!   record fails its checksum: the expected shape of a crash during an
//!   append. [`Wal::open`] silently truncates the file back to its last
//!   valid record and recovery proceeds with the surviving prefix;
//! * **corruption** — anything else (bad magic, a damaged record in a
//!   sealed segment, a checksum-valid record whose payload doesn't
//!   decode): surfaced as a typed [`WalError`], never a panic.

#![warn(missing_docs)]

pub mod record;
pub mod segment;
pub mod tail;
pub mod tmp;

pub use record::{
    crc32, read_framed, write_framed, AutoscaleRecord, ConfigRecord, Frame, PlanRecord, Reader,
    ReshardPolicyRecord, ShapeRecord, WalRecord, Writer,
};
pub use segment::{Checkpoint, CheckpointColumn, Wal};
pub use tail::{TailPoll, TailReader, TailStatus};
pub use tmp::TempDir;

use std::fmt;
use std::path::PathBuf;

/// When the changelog calls `fsync` on appended records.
///
/// The policy trades durability for append latency; recovery is correct
/// under all three (the log is written in commit order and torn tails
/// truncate), the policy only bounds *how much* acknowledged work a
/// power loss can shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every appended record: an acknowledged commit is on
    /// stable storage. The slowest option — every commit pays a device
    /// flush.
    PerCommit,
    /// `fsync` once every `n` appended records (and on rotation /
    /// explicit sync): group durability. A crash loses at most the last
    /// `n` acknowledged records.
    Batched(u64),
    /// Never `fsync` from the changelog; the OS writes back on its own
    /// schedule. A process crash loses nothing (the data is in the page
    /// cache); a power loss may shed any unsynced suffix.
    Off,
}

impl Default for SyncPolicy {
    /// Group durability, 64 records per flush.
    fn default() -> Self {
        SyncPolicy::Batched(64)
    }
}

/// A typed durability failure: every disk problem the WAL or checkpoint
/// machinery can surface.
///
/// Torn tails of the *last* segment are not errors (they truncate, see
/// the [crate docs](self)); everything here is a real fault the caller
/// must see.
#[derive(Debug)]
pub enum WalError {
    /// An OS-level I/O failure (open, read, write, fsync, rename, ...).
    Io {
        /// File or directory the operation touched.
        path: PathBuf,
        /// Which operation failed (static description, e.g. `"fsync"`).
        op: &'static str,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A segment or checkpoint file does not start with the expected
    /// magic/version header — not a torn write (headers are written
    /// first and fit one sector), so treated as corruption.
    BadHeader {
        /// The offending file.
        path: PathBuf,
        /// What was wrong with the header.
        why: String,
    },
    /// A damaged record outside the torn-tail window: a checksum failure
    /// in a sealed (non-final) segment, or a checksum-valid payload that
    /// does not decode. Data after this point cannot be trusted.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// Byte offset of the damaged record.
        offset: u64,
        /// What was wrong.
        why: String,
    },
    /// The log on disk was written by a different store kind than the
    /// one being opened (e.g. a sharded store opening a single-cell
    /// store's directory).
    StoreKindMismatch {
        /// The offending file.
        path: PathBuf,
        /// The kind tag the caller expected.
        expected: u8,
        /// The kind tag found on disk.
        found: u8,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io { path, op, source } => {
                write!(f, "wal i/o error: {op} on {}: {source}", path.display())
            }
            WalError::BadHeader { path, why } => {
                write!(f, "bad wal header in {}: {why}", path.display())
            }
            WalError::Corrupt { path, offset, why } => {
                write!(
                    f,
                    "corrupt wal record in {} at byte {offset}: {why}",
                    path.display()
                )
            }
            WalError::StoreKindMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "store kind mismatch in {}: log was written by kind {found}, opened as kind {expected}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl WalError {
    pub(crate) fn io(path: impl Into<PathBuf>, op: &'static str, source: std::io::Error) -> Self {
        WalError::Io {
            path: path.into(),
            op,
            source,
        }
    }
}
