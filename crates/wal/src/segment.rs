//! Segmented append-only log files and checkpoint files.
//!
//! A log directory holds:
//!
//! ```text
//! wal-00000000000000000000.seg   segment: records with epochs >= 0
//! wal-00000000000000000129.seg   segment: records with epochs >= 129
//! ckpt-00000000000000000128.ck   checkpoint of the whole store at epoch 128
//! ```
//!
//! Every file opens with a 9-byte header: an 8-byte magic/version
//! (`DHWAL001` / `DHCKP001`) and a store-kind tag byte, so a sharded
//! store cannot silently replay a single-cell store's log. Segments are
//! named by the first epoch they may contain; rotation happens right
//! after a checkpoint at epoch `E`, opening `wal-{E+1}.seg`, which makes
//! "segments fully covered by a checkpoint" a pure filename computation
//! (see [`Wal::remove_covered`]).
//!
//! Torn-tail policy: only the **last** segment may end mid-record or
//! with a failed checksum, and only when nothing decodable follows the
//! damage — [`Wal::open`] then physically truncates it back to its last
//! valid record. A damaged frame with a decodable frame after it is
//! mid-file bit rot, not a torn tail; that, the same shape in a sealed
//! segment, or a checksum-valid record that does not decode anywhere,
//! is a [`WalError::Corrupt`].

use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

use dh_core::BucketSpan;

use crate::record::{self, ConfigRecord, Frame, Reader, WalRecord, Writer};
use crate::{SyncPolicy, WalError};

pub(crate) const SEG_MAGIC: &[u8; 8] = b"DHWAL001";
const CKPT_MAGIC: &[u8; 8] = b"DHCKP001";
pub(crate) const HEADER_LEN: u64 = 9;

pub(crate) fn segment_name(start_epoch: u64) -> String {
    format!("wal-{start_epoch:020}.seg")
}

fn checkpoint_name(epoch: u64) -> String {
    format!("ckpt-{epoch:020}.ck")
}

/// Parses `wal-{epoch:020}.seg` back to its start epoch.
pub(crate) fn parse_segment_name(name: &str) -> Option<u64> {
    let epoch = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    (epoch.len() == 20).then(|| epoch.parse().ok()).flatten()
}

pub(crate) fn parse_checkpoint_name(name: &str) -> Option<u64> {
    let epoch = name.strip_prefix("ckpt-")?.strip_suffix(".ck")?;
    (epoch.len() == 20).then(|| epoch.parse().ok()).flatten()
}

fn fsync_dir(dir: &Path) -> Result<(), WalError> {
    let handle = File::open(dir).map_err(|e| WalError::io(dir, "open dir", e))?;
    handle
        .sync_all()
        .map_err(|e| WalError::io(dir, "fsync dir", e))
}

/// Validates a 9-byte header, returning the remaining payload offset.
pub(crate) fn check_header(
    path: &Path,
    buf: &[u8],
    magic: &[u8; 8],
    kind: u8,
) -> Result<(), WalError> {
    if buf.len() < HEADER_LEN as usize {
        return Err(WalError::BadHeader {
            path: path.to_path_buf(),
            why: format!("file is {} bytes, shorter than the header", buf.len()),
        });
    }
    if &buf[..8] != magic {
        return Err(WalError::BadHeader {
            path: path.to_path_buf(),
            why: format!("magic {:02x?} != {:02x?}", &buf[..8], magic),
        });
    }
    if buf[8] != kind {
        return Err(WalError::StoreKindMismatch {
            path: path.to_path_buf(),
            expected: kind,
            found: buf[8],
        });
    }
    Ok(())
}

/// The append-only epoch changelog: an open handle on the active
/// segment plus the sorted ledger of every segment in the directory.
///
/// All mutation goes through the owning `DurableStore`, which serializes
/// appends under its commit lock — `Wal` itself is single-writer and
/// does no locking.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    kind: u8,
    policy: SyncPolicy,
    file: File,
    path: PathBuf,
    /// Every segment in the directory (sealed + active), sorted by
    /// start epoch. The last entry is the active segment.
    segments: Vec<(u64, PathBuf)>,
    /// Appends since the last fsync, for [`SyncPolicy::Batched`].
    unsynced: u64,
}

impl Wal {
    /// Opens (or creates) the changelog in `dir`, validating every
    /// segment and returning all surviving records in append order —
    /// which, because appends are serialized under the commit lock, is
    /// exactly epoch order.
    ///
    /// A torn tail on the *last* segment is truncated away (crash
    /// mid-append); a partially-created last segment (shorter than its
    /// header — crash mid-rotation) is removed. Any other damage is a
    /// typed error.
    pub fn open(
        dir: impl Into<PathBuf>,
        kind: u8,
        policy: SyncPolicy,
    ) -> Result<(Wal, Vec<WalRecord>), WalError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| WalError::io(&dir, "create dir", e))?;

        let mut segments: Vec<(u64, PathBuf)> = Vec::new();
        let entries = fs::read_dir(&dir).map_err(|e| WalError::io(&dir, "read dir", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| WalError::io(&dir, "read dir", e))?;
            let name = entry.file_name();
            if let Some(start) = name.to_str().and_then(parse_segment_name) {
                segments.push((start, entry.path()));
            }
        }
        segments.sort();

        // A crash between "create next segment" and "write its header"
        // can leave a headerless file in the *last* position only.
        if let Some((_, path)) = segments.last() {
            let len = fs::metadata(path)
                .map_err(|e| WalError::io(path, "stat", e))?
                .len();
            if len < HEADER_LEN && segments.len() > 1 {
                let path = path.clone();
                fs::remove_file(&path).map_err(|e| WalError::io(&path, "remove", e))?;
                segments.pop();
            }
        }

        if segments.is_empty() {
            let path = dir.join(segment_name(0));
            let file = Self::create_segment(&path, kind)?;
            fsync_dir(&dir)?;
            let wal = Wal {
                dir,
                kind,
                policy,
                file,
                path: path.clone(),
                segments: vec![(0, path)],
                unsynced: 0,
            };
            return Ok((wal, Vec::new()));
        }

        let mut records = Vec::new();
        let last = segments.len() - 1;
        for (i, (_, path)) in segments.iter().enumerate() {
            Self::read_segment(path, kind, i == last, &mut records)?;
        }

        let path = segments[last].1.clone();
        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| WalError::io(&path, "open for append", e))?;
        let wal = Wal {
            dir,
            kind,
            policy,
            file,
            path,
            segments,
            unsynced: 0,
        };
        Ok((wal, records))
    }

    fn create_segment(path: &Path, kind: u8) -> Result<File, WalError> {
        let mut file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(path)
            .map_err(|e| WalError::io(path, "create", e))?;
        file.write_all(SEG_MAGIC)
            .and_then(|()| file.write_all(&[kind]))
            .map_err(|e| WalError::io(path, "write header", e))?;
        file.sync_data()
            .map_err(|e| WalError::io(path, "fsync", e))?;
        Ok(file)
    }

    /// Reads one segment, pushing its records; truncates a torn tail if
    /// `is_last`, errors on it otherwise.
    fn read_segment(
        path: &Path,
        kind: u8,
        is_last: bool,
        records: &mut Vec<WalRecord>,
    ) -> Result<(), WalError> {
        let mut buf = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut buf))
            .map_err(|e| WalError::io(path, "read", e))?;
        if is_last && buf.len() < HEADER_LEN as usize {
            // Single partially-created segment (fresh log that crashed
            // during creation): rewrite the header in place.
            let file = OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| WalError::io(path, "open", e))?;
            file.set_len(0)
                .map_err(|e| WalError::io(path, "truncate", e))?;
            drop(file);
            let f = Self::create_or_reset_header(path, kind)?;
            drop(f);
            return Ok(());
        }
        check_header(path, &buf, SEG_MAGIC, kind)?;

        let mut at = HEADER_LEN as usize;
        loop {
            match record::read_frame(&buf, at) {
                Frame::Done => return Ok(()),
                Frame::Record { record, next } => {
                    records.push(record);
                    at = next;
                }
                Frame::Torn if is_last => {
                    // A torn frame only means "crash mid-append" when
                    // nothing decodable follows it. If a later offset
                    // still yields a valid frame, the damage is mid-file
                    // bit rot and truncating here would silently discard
                    // valid (possibly acknowledged) records after it.
                    if Self::scan_finds_frame(&buf, at) {
                        return Err(WalError::Corrupt {
                            path: path.to_path_buf(),
                            offset: at as u64,
                            why: "damaged record followed by decodable data in the active segment"
                                .into(),
                        });
                    }
                    // Crash mid-append: shed the tail and keep the
                    // surviving prefix.
                    let file = OpenOptions::new()
                        .write(true)
                        .open(path)
                        .map_err(|e| WalError::io(path, "open", e))?;
                    file.set_len(at as u64)
                        .map_err(|e| WalError::io(path, "truncate", e))?;
                    file.sync_data()
                        .map_err(|e| WalError::io(path, "fsync", e))?;
                    return Ok(());
                }
                Frame::Torn => {
                    return Err(WalError::Corrupt {
                        path: path.to_path_buf(),
                        offset: at as u64,
                        why: "incomplete or checksum-failed record in a sealed segment".into(),
                    });
                }
                Frame::Invalid { why } => {
                    return Err(WalError::Corrupt {
                        path: path.to_path_buf(),
                        offset: at as u64,
                        why,
                    });
                }
            }
        }
    }

    /// True when any offset past `from` still parses as a complete
    /// frame (checksum-verified record or a typed-but-invalid payload):
    /// the byte stream continues past the damage, so it cannot be a
    /// torn tail. Only runs on the active segment's damaged suffix,
    /// which a crash keeps short.
    fn scan_finds_frame(buf: &[u8], from: usize) -> bool {
        for at in from + 1..buf.len() {
            match record::read_frame(buf, at) {
                Frame::Record { .. } | Frame::Invalid { .. } => return true,
                Frame::Torn | Frame::Done => {}
            }
        }
        false
    }

    fn create_or_reset_header(path: &Path, kind: u8) -> Result<File, WalError> {
        let mut file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| WalError::io(path, "open", e))?;
        file.write_all(SEG_MAGIC)
            .and_then(|()| file.write_all(&[kind]))
            .map_err(|e| WalError::io(path, "write header", e))?;
        file.sync_data()
            .map_err(|e| WalError::io(path, "fsync", e))?;
        Ok(file)
    }

    /// Appends one record to the active segment, honouring the sync
    /// policy. The caller (the commit lock) guarantees append order ==
    /// epoch order.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), WalError> {
        let frame = record.encode_frame();
        self.file
            .write_all(&frame)
            .map_err(|e| WalError::io(&self.path, "append", e))?;
        match self.policy {
            SyncPolicy::PerCommit => {
                self.file
                    .sync_data()
                    .map_err(|e| WalError::io(&self.path, "fsync", e))?;
            }
            SyncPolicy::Batched(n) => {
                self.unsynced += 1;
                if self.unsynced >= n.max(1) {
                    self.sync()?;
                }
            }
            SyncPolicy::Off => {}
        }
        Ok(())
    }

    /// Forces an fsync of the active segment.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.file
            .sync_data()
            .map_err(|e| WalError::io(&self.path, "fsync", e))?;
        self.unsynced = 0;
        Ok(())
    }

    /// Seals the active segment and opens `wal-{next_start}.seg`.
    /// Called right after a checkpoint at epoch `next_start - 1`, so
    /// every sealed segment holds only checkpoint-covered epochs.
    pub fn rotate(&mut self, next_start: u64) -> Result<(), WalError> {
        self.sync()?;
        let path = self.dir.join(segment_name(next_start));
        let file = Self::create_segment(&path, self.kind)?;
        fsync_dir(&self.dir)?;
        self.file = file;
        self.path = path.clone();
        self.segments.push((next_start, path));
        Ok(())
    }

    /// Removes every sealed segment fully covered by a checkpoint at
    /// `checkpoint_epoch`: a sealed segment is removable when its
    /// *successor's* start epoch is `<= checkpoint_epoch + 1` (all its
    /// records then replay to states the checkpoint already contains).
    /// Callers that keep fallback checkpoints should pass the *oldest*
    /// retained checkpoint's epoch (see [`checkpoint_epochs`]), not the
    /// newest, or the fallback loses its log tail. The active segment is
    /// never removed. Returns how many segments were deleted.
    pub fn remove_covered(&mut self, checkpoint_epoch: u64) -> Result<usize, WalError> {
        let mut removed = 0;
        while self.segments.len() > 1 && self.segments[1].0 <= checkpoint_epoch + 1 {
            let (_, path) = self.segments.remove(0);
            fs::remove_file(&path).map_err(|e| WalError::io(&path, "remove", e))?;
            removed += 1;
        }
        if removed > 0 {
            fsync_dir(&self.dir)?;
        }
        Ok(removed)
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// How many segment files the directory currently holds.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }
}

/// A whole-store snapshot at one published epoch: everything recovery
/// needs to re-seed a store without replaying older segments.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The epoch the snapshot was composed at.
    pub epoch: u64,
    /// One entry per registered column, in registration order.
    pub columns: Vec<CheckpointColumn>,
}

/// One column's slice of a [`Checkpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointColumn {
    /// Column name.
    pub column: String,
    /// The registration config (restored verbatim, minus any inner
    /// re-shard policy — the durable layer runs policy itself).
    pub config: ConfigRecord,
    /// Commits that touched this column up to the checkpoint epoch.
    pub accepted: u64,
    /// Update ops absorbed by this column up to the checkpoint epoch.
    pub updates: u64,
    /// The composed whole-column histogram spans at the epoch.
    pub spans: Vec<BucketSpan>,
}

impl Checkpoint {
    fn encode_payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.epoch);
        w.u32(self.columns.len() as u32);
        for col in &self.columns {
            w.str_(&col.column);
            col.config.encode(&mut w);
            w.u64(col.accepted);
            w.u64(col.updates);
            w.u32(col.spans.len() as u32);
            for span in &col.spans {
                w.f64(span.lo);
                w.f64(span.hi);
                w.f64(span.count);
            }
        }
        w.buf
    }

    fn decode_payload(payload: &[u8]) -> Result<Checkpoint, String> {
        let mut r = Reader::new(payload);
        let epoch = r.u64()?;
        let n = r.u32()? as usize;
        let mut columns = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let column = r.str_()?;
            let config = ConfigRecord::decode(&mut r)?;
            let accepted = r.u64()?;
            let updates = r.u64()?;
            let n_spans = r.u32()? as usize;
            let mut spans = Vec::with_capacity(n_spans.min(1 << 16));
            for _ in 0..n_spans {
                let (lo, hi, count) = (r.f64()?, r.f64()?, r.f64()?);
                if !(lo.is_finite() && hi.is_finite() && count.is_finite())
                    || hi < lo
                    || count < 0.0
                {
                    return Err(format!("invalid span [{lo}, {hi}] x {count}"));
                }
                spans.push(BucketSpan::new(lo, hi, count));
            }
            columns.push(CheckpointColumn {
                column,
                config,
                accepted,
                updates,
                spans,
            });
        }
        r.finish()?;
        Ok(Checkpoint { epoch, columns })
    }
}

/// Writes `ckpt-{epoch}.ck` atomically (temp file, fsync, rename, fsync
/// dir), then prunes all but the two newest checkpoint files — the
/// newest is the recovery base, the second-newest the fallback if the
/// newest turns out damaged.
pub fn write_checkpoint(dir: &Path, kind: u8, ckpt: &Checkpoint) -> Result<PathBuf, WalError> {
    let payload = ckpt.encode_payload();
    let mut buf = Vec::with_capacity(payload.len() + 17);
    buf.extend_from_slice(CKPT_MAGIC);
    buf.push(kind);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&record::crc32(&payload).to_le_bytes());
    buf.extend_from_slice(&payload);

    let path = dir.join(checkpoint_name(ckpt.epoch));
    let tmp = dir.join(format!("{}.tmp", checkpoint_name(ckpt.epoch)));
    {
        let mut file = File::create(&tmp).map_err(|e| WalError::io(&tmp, "create", e))?;
        file.write_all(&buf)
            .map_err(|e| WalError::io(&tmp, "write", e))?;
        file.sync_data()
            .map_err(|e| WalError::io(&tmp, "fsync", e))?;
    }
    fs::rename(&tmp, &path).map_err(|e| WalError::io(&path, "rename", e))?;
    fsync_dir(dir)?;

    // Prune: keep the two newest checkpoints.
    let mut epochs = list_checkpoints(dir)?;
    while epochs.len() > 2 {
        let (_, old) = epochs.remove(0);
        fs::remove_file(&old).map_err(|e| WalError::io(&old, "remove", e))?;
    }
    Ok(path)
}

/// Epochs of every on-disk checkpoint, oldest first. The oldest entry
/// is the retention floor for segment pruning: segments must survive
/// back to it so that falling back from a damaged newer checkpoint
/// still finds a contiguous log tail.
pub fn checkpoint_epochs(dir: &Path) -> Result<Vec<u64>, WalError> {
    Ok(list_checkpoints(dir)?.into_iter().map(|(e, _)| e).collect())
}

fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut found = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| WalError::io(dir, "read dir", e))?;
    for entry in entries {
        let entry = entry.map_err(|e| WalError::io(dir, "read dir", e))?;
        if let Some(epoch) = entry.file_name().to_str().and_then(parse_checkpoint_name) {
            found.push((epoch, entry.path()));
        }
    }
    found.sort();
    Ok(found)
}

/// Loads the newest checkpoint that validates, newest-first. A damaged
/// checkpoint file (torn rename, bit rot) is skipped in favour of an
/// older one — callers must retain WAL segments back to the *oldest*
/// on-disk checkpoint (see [`checkpoint_epochs`]) so the fallback still
/// has a contiguous log tail to replay. A store-kind mismatch is a real
/// error, not a fallback.
pub fn latest_checkpoint(dir: &Path, kind: u8) -> Result<Option<Checkpoint>, WalError> {
    let mut candidates = list_checkpoints(dir)?;
    while let Some((_, path)) = candidates.pop() {
        let mut buf = Vec::new();
        File::open(&path)
            .and_then(|mut f| f.read_to_end(&mut buf))
            .map_err(|e| WalError::io(&path, "read", e))?;
        match check_header(&path, &buf, CKPT_MAGIC, kind) {
            Ok(()) => {}
            Err(WalError::StoreKindMismatch {
                path,
                expected,
                found,
            }) => {
                return Err(WalError::StoreKindMismatch {
                    path,
                    expected,
                    found,
                })
            }
            Err(_) => continue, // damaged header: fall back
        }
        let body = &buf[HEADER_LEN as usize..];
        if body.len() < 8 {
            continue;
        }
        let len = u32::from_le_bytes(body[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(body[4..8].try_into().expect("4 bytes"));
        if len > record::MAX_RECORD_LEN as usize || body.len() - 8 != len {
            continue;
        }
        let payload = &body[8..];
        if record::crc32(payload) != crc {
            continue;
        }
        match Checkpoint::decode_payload(payload) {
            Ok(ckpt) => return Ok(Some(ckpt)),
            Err(_) => continue,
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tmp::TempDir;
    use dh_core::UpdateOp;

    const KIND: u8 = 7;

    fn commit(epoch: u64) -> WalRecord {
        WalRecord::Commit {
            epoch,
            columns: vec![("c".into(), vec![UpdateOp::Insert(epoch as i64)])],
        }
    }

    #[test]
    fn append_reopen_round_trips_in_order() {
        let dir = TempDir::new("seg-roundtrip");
        let records: Vec<WalRecord> = (1..=10).map(commit).collect();
        {
            let (mut wal, recovered) = Wal::open(dir.path(), KIND, SyncPolicy::PerCommit).unwrap();
            assert!(recovered.is_empty());
            for r in &records {
                wal.append(r).unwrap();
            }
        }
        let (_, recovered) = Wal::open(dir.path(), KIND, SyncPolicy::default()).unwrap();
        assert_eq!(recovered, records);
    }

    #[test]
    fn rotation_spreads_records_and_remove_covered_prunes() {
        let dir = TempDir::new("seg-rotate");
        {
            let (mut wal, _) = Wal::open(dir.path(), KIND, SyncPolicy::Off).unwrap();
            for e in 1..=4 {
                wal.append(&commit(e)).unwrap();
            }
            wal.rotate(5).unwrap();
            for e in 5..=8 {
                wal.append(&commit(e)).unwrap();
            }
            wal.rotate(9).unwrap();
            wal.append(&commit(9)).unwrap();
            assert_eq!(wal.segment_count(), 3);

            // A checkpoint at epoch 4 covers only the first segment.
            assert_eq!(wal.remove_covered(4).unwrap(), 1);
            assert_eq!(wal.segment_count(), 2);
            // At epoch 8 the second goes too; the active one stays.
            assert_eq!(wal.remove_covered(8).unwrap(), 1);
            assert_eq!(wal.segment_count(), 1);
            wal.sync().unwrap();
        }
        let (_, recovered) = Wal::open(dir.path(), KIND, SyncPolicy::Off).unwrap();
        assert_eq!(recovered, vec![commit(9)]);
    }

    #[test]
    fn torn_tail_in_last_segment_truncates() {
        let dir = TempDir::new("seg-torn");
        {
            let (mut wal, _) = Wal::open(dir.path(), KIND, SyncPolicy::PerCommit).unwrap();
            for e in 1..=3 {
                wal.append(&commit(e)).unwrap();
            }
        }
        let path = dir.path().join(segment_name(0));
        let len = fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);

        let (mut wal, recovered) = Wal::open(dir.path(), KIND, SyncPolicy::PerCommit).unwrap();
        assert_eq!(recovered, vec![commit(1), commit(2)]);
        // The truncated log accepts new appends cleanly.
        wal.append(&commit(3)).unwrap();
        drop(wal);
        let (_, recovered) = Wal::open(dir.path(), KIND, SyncPolicy::PerCommit).unwrap();
        assert_eq!(recovered, vec![commit(1), commit(2), commit(3)]);
    }

    #[test]
    fn mid_file_damage_in_last_segment_is_typed_corruption() {
        let dir = TempDir::new("seg-midrot");
        {
            let (mut wal, _) = Wal::open(dir.path(), KIND, SyncPolicy::PerCommit).unwrap();
            for e in 1..=3 {
                wal.append(&commit(e)).unwrap();
            }
        }
        // Flip a payload byte inside the *first* record: the later
        // records still decode, so this is bit rot, not a torn tail —
        // truncating would silently drop commits 2 and 3.
        let path = dir.path().join(segment_name(0));
        let mut buf = fs::read(&path).unwrap();
        let at = HEADER_LEN as usize + 8 + 1;
        buf[at] ^= 0x40;
        fs::write(&path, &buf).unwrap();

        match Wal::open(dir.path(), KIND, SyncPolicy::PerCommit) {
            Err(WalError::Corrupt { path: p, .. }) => assert_eq!(p, path),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // And nothing was truncated while deciding.
        assert_eq!(fs::read(&path).unwrap(), buf);
    }

    #[test]
    fn damage_in_sealed_segment_is_typed_corruption() {
        let dir = TempDir::new("seg-sealed");
        {
            let (mut wal, _) = Wal::open(dir.path(), KIND, SyncPolicy::PerCommit).unwrap();
            for e in 1..=3 {
                wal.append(&commit(e)).unwrap();
            }
            wal.rotate(4).unwrap();
            wal.append(&commit(4)).unwrap();
        }
        let sealed = dir.path().join(segment_name(0));
        let len = fs::metadata(&sealed).unwrap().len();
        let file = OpenOptions::new().write(true).open(&sealed).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);

        match Wal::open(dir.path(), KIND, SyncPolicy::PerCommit) {
            Err(WalError::Corrupt { path, .. }) => assert_eq!(path, sealed),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let dir = TempDir::new("seg-kind");
        {
            let (_wal, _) = Wal::open(dir.path(), KIND, SyncPolicy::Off).unwrap();
        }
        match Wal::open(dir.path(), KIND + 1, SyncPolicy::Off) {
            Err(WalError::StoreKindMismatch {
                expected, found, ..
            }) => {
                assert_eq!((expected, found), (KIND + 1, KIND));
            }
            other => panic!("expected StoreKindMismatch, got {other:?}"),
        }
    }

    #[test]
    fn headerless_trailing_segment_is_dropped() {
        let dir = TempDir::new("seg-headerless");
        {
            let (mut wal, _) = Wal::open(dir.path(), KIND, SyncPolicy::PerCommit).unwrap();
            wal.append(&commit(1)).unwrap();
        }
        // Simulate a crash mid-rotation: a next segment with a partial
        // header.
        fs::write(dir.path().join(segment_name(2)), b"DHW").unwrap();
        let (wal, recovered) = Wal::open(dir.path(), KIND, SyncPolicy::PerCommit).unwrap();
        assert_eq!(recovered, vec![commit(1)]);
        assert_eq!(wal.segment_count(), 1);
    }

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            epoch: 128,
            columns: vec![CheckpointColumn {
                column: "c".into(),
                config: ConfigRecord {
                    spec: "DC".into(),
                    memory_bytes: 1024,
                    seed: 3,
                    plan: None,
                    reshard: None,
                    autoscale: None,
                    rebuilt: Some(crate::record::ShapeRecord {
                        shards: 8,
                        spec: "DADO".into(),
                        memory_bytes: 1024,
                    }),
                    rebuild_seq: 2,
                },
                accepted: 128,
                updates: 4096,
                spans: vec![
                    BucketSpan::new(0.0, 10.0, 40.0),
                    BucketSpan::new(10.0, 20.0, 2.5),
                ],
            }],
        }
    }

    #[test]
    fn checkpoint_round_trips_and_prunes_to_two() {
        let dir = TempDir::new("ckpt-roundtrip");
        assert_eq!(latest_checkpoint(dir.path(), KIND).unwrap(), None);
        for epoch in [64, 128, 192] {
            let mut ckpt = sample_checkpoint();
            ckpt.epoch = epoch;
            write_checkpoint(dir.path(), KIND, &ckpt).unwrap();
        }
        let loaded = latest_checkpoint(dir.path(), KIND).unwrap().unwrap();
        assert_eq!(loaded.epoch, 192);
        assert_eq!(loaded.columns, sample_checkpoint().columns);
        assert_eq!(list_checkpoints(dir.path()).unwrap().len(), 2);
    }

    #[test]
    fn damaged_newest_checkpoint_falls_back_to_previous() {
        let dir = TempDir::new("ckpt-fallback");
        for epoch in [64, 128] {
            let mut ckpt = sample_checkpoint();
            ckpt.epoch = epoch;
            write_checkpoint(dir.path(), KIND, &ckpt).unwrap();
        }
        // Flip a byte deep inside the newest checkpoint's payload.
        let newest = dir.path().join(checkpoint_name(128));
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();

        let loaded = latest_checkpoint(dir.path(), KIND).unwrap().unwrap();
        assert_eq!(loaded.epoch, 64);
    }

    #[test]
    fn checkpoint_kind_mismatch_is_rejected() {
        let dir = TempDir::new("ckpt-kind");
        write_checkpoint(dir.path(), KIND, &sample_checkpoint()).unwrap();
        match latest_checkpoint(dir.path(), KIND + 1) {
            Err(WalError::StoreKindMismatch { .. }) => {}
            other => panic!("expected StoreKindMismatch, got {other:?}"),
        }
    }
}
