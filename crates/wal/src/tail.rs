//! Read-only tailing of a live changelog directory.
//!
//! [`TailReader`] is the follower-side counterpart of
//! [`Wal::open`](crate::segment::Wal::open): it scans the same segment
//! files, but it does **not own** the directory — the leader (or a
//! file-copying replication stream) is still appending, rotating and
//! pruning under its feet. That changes every damage-handling decision
//! the owning scan makes:
//!
//! * A torn or incomplete frame at the tail is not a crash to repair —
//!   it is an append (or a file copy) that has not finished yet. The
//!   reader parks the cursor *before* the damage and re-polls; it never
//!   truncates.
//! * A segment shorter than its 9-byte header is a rotation (or copy)
//!   caught mid-creation, not debris to delete. The reader treats it as
//!   pending and retries; it never removes files.
//! * The cursor's segment vanishing means the leader's checkpoint
//!   pruning overtook the reader. That is reported as
//!   [`TailStatus::Lost`] so the caller can fall back to a checkpoint
//!   restore and re-[`seek`](TailReader::seek) — the reader itself
//!   cannot decide where to resume.
//! * A sealed-looking segment is only left behind once its decoded
//!   records actually reach the next segment's start epoch. A copy
//!   truncated exactly at a frame boundary looks clean but is not
//!   complete; advancing past it would silently skip the missing
//!   epochs (unrecoverably, if the next segment is still empty), so
//!   the reader parks there until the copy catches up.
//!
//! What stays as strict as the owning scan: a checksum-valid record
//! that does not decode is [`WalError::Corrupt`], and a header with the
//! wrong magic or store-kind tag is a typed error — a replica must
//! never replay a directory that is not the leader's changelog.
//!
//! The full state machine, and the fault matrix the chaos suite drives
//! through it, are documented in `docs/REPLICATION.md`.

use std::fs::{self, File};
use std::io::Read as _;
use std::path::{Path, PathBuf};

use crate::record::{self, Frame, WalRecord};
use crate::segment::{parse_checkpoint_name, parse_segment_name, HEADER_LEN, SEG_MAGIC};
use crate::WalError;

/// Where the reader stands: a segment (by start epoch) and an absolute
/// byte offset of the next unread frame inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cursor {
    start: u64,
    offset: u64,
}

/// What one [`TailReader::poll`] observed beyond the decoded records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailStatus {
    /// Every byte currently visible and decodable has been consumed;
    /// the cursor is parked at the first byte that has not been written
    /// (or copied) yet. Poll again later.
    CaughtUp,
    /// The segment the cursor was parked in no longer exists: the
    /// leader's checkpoint pruning ran past the reader. The caller must
    /// restore from a checkpoint and [`TailReader::seek`] to its epoch;
    /// polling again without seeking keeps returning `Lost`.
    Lost,
}

/// One poll's harvest: the records decoded this round (in append
/// order — which is epoch order) and the tail condition met.
#[derive(Debug)]
pub struct TailPoll {
    /// Newly visible records, in append order.
    pub records: Vec<WalRecord>,
    /// Why the poll stopped.
    pub status: TailStatus,
}

/// An incremental, strictly read-only scanner over a changelog
/// directory that something else is writing. See the [module
/// docs](self) for the contract.
#[derive(Debug)]
pub struct TailReader {
    dir: PathBuf,
    kind: u8,
    cursor: Option<Cursor>,
    /// Pending [`seek`](TailReader::seek) target: the next poll
    /// positions the cursor at the newest segment that can contain
    /// epoch `resume + 1`.
    resume: Option<u64>,
    /// The highest epoch proven *behind* the cursor: the caller's
    /// replayed epoch at the last seek, raised by every commit epoch
    /// and rebuild barrier decoded since. Gates segment advancement —
    /// the continuity proof that the current segment is really
    /// exhausted, not just truncated at a frame boundary.
    seen: u64,
    hint: u64,
}

/// How one segment's readable suffix ended.
enum SegmentEnd {
    /// Every visible byte decoded; the cursor sits at end-of-file.
    Clean,
    /// The tail ends mid-frame, the file is shorter than the header or
    /// the cursor (a copy in progress), or the file is momentarily
    /// absent: wait and re-poll.
    Pending,
}

impl TailReader {
    /// A reader over `dir`, expecting segments stamped with store-kind
    /// tag `kind`. The directory may not exist yet — polls simply
    /// report an empty [`TailStatus::CaughtUp`] until it does.
    pub fn new(dir: impl Into<PathBuf>, kind: u8) -> TailReader {
        TailReader {
            dir: dir.into(),
            kind,
            cursor: None,
            resume: None,
            seen: 0,
            hint: 0,
        }
    }

    /// Repositions the reader after a checkpoint restore at `epoch`:
    /// the next [`poll`](TailReader::poll) starts at the newest segment
    /// whose records can still include epoch `epoch + 1` (segments are
    /// named by the first epoch they may contain), re-reading it from
    /// the top. Re-read records overlap state the caller already has;
    /// replay must skip them idempotently.
    pub fn seek(&mut self, epoch: u64) {
        self.cursor = None;
        self.resume = Some(epoch);
        self.seen = epoch;
    }

    /// A lower bound on the leader's published epoch, learned from
    /// everything this reader has seen on disk: commit epochs and
    /// rebuild barriers decoded so far, segment names (a segment
    /// starting at `S` proves epoch `S - 1` was published), and
    /// checkpoint names. Monotone; `0` before the first poll.
    pub fn epoch_hint(&self) -> u64 {
        self.hint
    }

    /// Reads everything new since the last poll. Errors are permanent
    /// (corruption, a foreign directory); transient racy shapes — torn
    /// tails, half-copied files, headerless rotations — all land in
    /// [`TailStatus::CaughtUp`] with the cursor parked for a retry.
    pub fn poll(&mut self) -> Result<TailPoll, WalError> {
        let mut records = Vec::new();
        let segments = self.list_segments()?;
        for &(start, _) in &segments {
            self.hint = self.hint.max(start.saturating_sub(1));
        }
        if segments.is_empty() {
            return Ok(TailPoll {
                records,
                status: TailStatus::CaughtUp,
            });
        }

        let mut idx = match self.cursor {
            Some(Cursor { start, .. }) => {
                match segments.iter().position(|&(s, _)| s == start) {
                    Some(i) => i,
                    None => {
                        // Pruned under us; the caller must restore and seek.
                        return Ok(TailPoll {
                            records,
                            status: TailStatus::Lost,
                        });
                    }
                }
            }
            None => {
                let i = match self.resume.take() {
                    Some(epoch) => segments
                        .iter()
                        .rposition(|&(s, _)| s <= epoch.saturating_add(1))
                        .unwrap_or(0),
                    None => 0,
                };
                self.cursor = Some(Cursor {
                    start: segments[i].0,
                    offset: HEADER_LEN,
                });
                i
            }
        };

        loop {
            let is_last = idx + 1 == segments.len();
            let (_, path) = &segments[idx];
            let cursor = self.cursor.as_mut().expect("positioned above");
            let before = records.len();
            let end = read_segment_tail(path, self.kind, &mut cursor.offset, &mut records)?;
            for record in &records[before..] {
                match record {
                    WalRecord::Commit { epoch, .. } => self.seen = self.seen.max(*epoch),
                    WalRecord::Rebuild { barrier, .. } => self.seen = self.seen.max(*barrier),
                    WalRecord::Register { .. } => {}
                }
            }
            match end {
                SegmentEnd::Pending => break,
                SegmentEnd::Clean if is_last => break,
                SegmentEnd::Clean => {
                    // Continuity proof before leaving a sealed segment
                    // behind: its records must reach the next segment's
                    // start epoch. A copy truncated at a frame boundary
                    // decodes cleanly but stops short — advancing would
                    // skip the missing epochs for good, so park here
                    // until the rest of the segment arrives.
                    if self.seen.saturating_add(1) < segments[idx + 1].0 {
                        break;
                    }
                    idx += 1;
                    *cursor = Cursor {
                        start: segments[idx].0,
                        offset: HEADER_LEN,
                    };
                }
            }
        }

        for record in &records {
            match record {
                WalRecord::Commit { epoch, .. } => self.hint = self.hint.max(*epoch),
                WalRecord::Rebuild { barrier, .. } => self.hint = self.hint.max(*barrier),
                WalRecord::Register { .. } => {}
            }
        }
        Ok(TailPoll {
            records,
            status: TailStatus::CaughtUp,
        })
    }

    /// Segment files currently in the directory, sorted by start epoch.
    /// A missing directory is an empty listing, not an error — the
    /// leader (or the copy stream) may not have created it yet. Also
    /// harvests checkpoint names into the epoch hint.
    fn list_segments(&mut self) -> Result<Vec<(u64, PathBuf)>, WalError> {
        let mut segments = Vec::new();
        let entries = match fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(segments),
            Err(e) => return Err(WalError::io(&self.dir, "read dir", e)),
        };
        for entry in entries {
            let entry = entry.map_err(|e| WalError::io(&self.dir, "read dir", e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(start) = parse_segment_name(name) {
                segments.push((start, entry.path()));
            } else if let Some(epoch) = parse_checkpoint_name(name) {
                self.hint = self.hint.max(epoch);
            }
        }
        segments.sort();
        Ok(segments)
    }
}

/// Decodes one segment's frames from `*offset` forward, advancing the
/// offset past every whole record consumed. Never writes to the file.
fn read_segment_tail(
    path: &Path,
    kind: u8,
    offset: &mut u64,
    records: &mut Vec<WalRecord>,
) -> Result<SegmentEnd, WalError> {
    let mut buf = Vec::new();
    let read = File::open(path).and_then(|mut f| f.read_to_end(&mut buf));
    match read {
        Ok(_) => {}
        // Vanished between the directory listing and the open: the next
        // poll's listing will classify it (pruned -> Lost).
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(SegmentEnd::Pending),
        Err(e) => return Err(WalError::io(path, "read", e)),
    }
    if (buf.len() as u64) < HEADER_LEN {
        // Rotation (or copy) caught between create and header write.
        // The owning scan may delete this; a reader that does not own
        // the file retries instead.
        return Ok(SegmentEnd::Pending);
    }
    crate::segment::check_header(path, &buf, SEG_MAGIC, kind)?;
    if (buf.len() as u64) < *offset {
        // Shorter than what we already consumed: a copy stream is
        // rewriting the file and has not caught back up yet.
        return Ok(SegmentEnd::Pending);
    }
    let mut at = *offset as usize;
    loop {
        match record::read_frame(&buf, at) {
            Frame::Done => {
                *offset = at as u64;
                return Ok(SegmentEnd::Clean);
            }
            Frame::Record { record, next } => {
                records.push(record);
                at = next;
                *offset = next as u64;
            }
            // Mid-append or mid-copy; even in a sealed segment a copied
            // stream can present a torn tail that later heals, so a
            // reader never escalates this to corruption.
            Frame::Torn => return Ok(SegmentEnd::Pending),
            Frame::Invalid { why } => {
                return Err(WalError::Corrupt {
                    path: path.to_path_buf(),
                    offset: at as u64,
                    why,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{segment_name, Wal};
    use crate::tmp::TempDir;
    use crate::SyncPolicy;
    use dh_core::UpdateOp;
    use std::fs;

    const KIND: u8 = 7;

    fn commit(epoch: u64) -> WalRecord {
        WalRecord::Commit {
            epoch,
            columns: vec![("c".into(), vec![UpdateOp::Insert(epoch as i64)])],
        }
    }

    #[test]
    fn follows_live_appends_across_polls() {
        let dir = TempDir::new("tail-live");
        let (mut wal, _) = Wal::open(dir.path(), KIND, SyncPolicy::Off).unwrap();
        let mut tail = TailReader::new(dir.path(), KIND);

        for e in 1..=3 {
            wal.append(&commit(e)).unwrap();
        }
        let out = tail.poll().unwrap();
        assert_eq!(out.status, TailStatus::CaughtUp);
        assert_eq!(out.records, (1..=3).map(commit).collect::<Vec<_>>());
        assert_eq!(tail.epoch_hint(), 3);

        // Nothing new: empty harvest, same position.
        assert!(tail.poll().unwrap().records.is_empty());

        for e in 4..=5 {
            wal.append(&commit(e)).unwrap();
        }
        let out = tail.poll().unwrap();
        assert_eq!(out.records, (4..=5).map(commit).collect::<Vec<_>>());
        assert_eq!(tail.epoch_hint(), 5);
    }

    #[test]
    fn missing_directory_is_pending_not_an_error() {
        let dir = TempDir::new("tail-missing");
        let missing = dir.path().join("not-created-yet");
        let mut tail = TailReader::new(&missing, KIND);
        let out = tail.poll().unwrap();
        assert_eq!(out.status, TailStatus::CaughtUp);
        assert!(out.records.is_empty());
    }

    /// The satellite gap this PR fixes: the *owning* scan treats a
    /// headerless last segment as removable debris; a follower racing
    /// the leader's `rotate()` (create happened, header write has not)
    /// must retry — not delete, not error — and pick the segment up
    /// once its header and records land.
    #[test]
    fn headerless_rotation_race_retries_without_deleting() {
        let dir = TempDir::new("tail-headerless");
        let (mut wal, _) = Wal::open(dir.path(), KIND, SyncPolicy::Off).unwrap();
        wal.append(&commit(1)).unwrap();
        wal.sync().unwrap();

        // The race window: the next segment exists but holds only a
        // partial header.
        let racing = dir.path().join(segment_name(2));
        fs::write(&racing, b"DHW").unwrap();

        let mut tail = TailReader::new(dir.path(), KIND);
        let out = tail.poll().unwrap();
        assert_eq!(out.status, TailStatus::CaughtUp);
        assert_eq!(out.records, vec![commit(1)]);
        assert!(
            racing.exists(),
            "a reader must not delete the leader's file"
        );

        // Still pending on a re-poll; still not deleted.
        assert!(tail.poll().unwrap().records.is_empty());
        assert!(racing.exists());

        // The leader finishes the rotation; the reader picks it up.
        let mut seg = SEG_MAGIC.to_vec();
        seg.push(KIND);
        seg.extend_from_slice(&commit(2).encode_frame());
        fs::write(&racing, seg).unwrap();
        let out = tail.poll().unwrap();
        assert_eq!(out.records, vec![commit(2)]);
    }

    #[test]
    fn torn_tail_is_pending_and_heals_in_place() {
        let dir = TempDir::new("tail-torn");
        let full = TempDir::new("tail-torn-ref");
        let (mut wal, _) = Wal::open(full.path(), KIND, SyncPolicy::Off).unwrap();
        for e in 1..=3 {
            wal.append(&commit(e)).unwrap();
        }
        wal.sync().unwrap();
        let bytes = fs::read(full.path().join(segment_name(0))).unwrap();

        // A copy stream delivered all but the last 3 bytes.
        let seg = dir.path().join(segment_name(0));
        fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();
        let mut tail = TailReader::new(dir.path(), KIND);
        let out = tail.poll().unwrap();
        assert_eq!(out.status, TailStatus::CaughtUp);
        assert_eq!(out.records, vec![commit(1), commit(2)]);

        // The copy completes; only the healed record is new.
        fs::write(&seg, &bytes).unwrap();
        let out = tail.poll().unwrap();
        assert_eq!(out.records, vec![commit(3)]);
    }

    /// A copy truncated exactly at a frame boundary decodes cleanly but
    /// is not complete. If the rotated successor segment is already
    /// visible (and still empty), advancing past the truncated one
    /// would skip the missing epochs forever while reporting
    /// `CaughtUp` — the reader must park until the copy catches up.
    #[test]
    fn frame_boundary_truncation_does_not_skip_a_sealed_segment() {
        let dir = TempDir::new("tail-boundary");
        let full = TempDir::new("tail-boundary-ref");
        let (mut wal, _) = Wal::open(full.path(), KIND, SyncPolicy::Off).unwrap();
        for e in 1..=3 {
            wal.append(&commit(e)).unwrap();
        }
        wal.sync().unwrap();
        let bytes = fs::read(full.path().join(segment_name(0))).unwrap();

        // The copy stream delivered wal-0 cut at the frame boundary
        // after commit 2, and the leader's rotated, still-empty
        // successor wal-4 in full.
        let boundary =
            HEADER_LEN as usize + commit(1).encode_frame().len() + commit(2).encode_frame().len();
        fs::write(dir.path().join(segment_name(0)), &bytes[..boundary]).unwrap();
        let mut rotated = SEG_MAGIC.to_vec();
        rotated.push(KIND);
        fs::write(dir.path().join(segment_name(4)), &rotated).unwrap();

        let mut tail = TailReader::new(dir.path(), KIND);
        let out = tail.poll().unwrap();
        assert_eq!(out.status, TailStatus::CaughtUp);
        assert_eq!(out.records, vec![commit(1), commit(2)]);

        // Commit 3 is still in flight; polls stay parked in wal-0
        // instead of advancing to wal-4 and declaring the log consumed.
        assert!(tail.poll().unwrap().records.is_empty());

        // The copy catches up; the reader resumes in place and only
        // then crosses into the successor.
        fs::write(dir.path().join(segment_name(0)), &bytes).unwrap();
        let out = tail.poll().unwrap();
        assert_eq!(out.records, vec![commit(3)]);
    }

    #[test]
    fn sealed_segments_advance_and_pruning_reports_lost() {
        let dir = TempDir::new("tail-prune");
        let (mut wal, _) = Wal::open(dir.path(), KIND, SyncPolicy::Off).unwrap();
        for e in 1..=4 {
            wal.append(&commit(e)).unwrap();
        }
        wal.sync().unwrap();

        // Park the reader's cursor in the first segment.
        let mut tail = TailReader::new(dir.path(), KIND);
        assert_eq!(tail.poll().unwrap().records.len(), 4);

        // The leader rotates twice and prunes both sealed segments.
        wal.rotate(5).unwrap();
        for e in 5..=8 {
            wal.append(&commit(e)).unwrap();
        }
        wal.rotate(9).unwrap();
        wal.append(&commit(9)).unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.remove_covered(8).unwrap(), 2);

        let out = tail.poll().unwrap();
        assert_eq!(out.status, TailStatus::Lost);
        assert!(out.records.is_empty());
        // Lost persists until the caller seeks.
        assert_eq!(tail.poll().unwrap().status, TailStatus::Lost);

        // After a (simulated) checkpoint restore at epoch 8: resume.
        tail.seek(8);
        let out = tail.poll().unwrap();
        assert_eq!(out.status, TailStatus::CaughtUp);
        assert_eq!(out.records, vec![commit(9)]);
        // Segment names floor the hint even before their records are
        // read: wal-9 existing proves epoch 8 was published.
        assert!(tail.epoch_hint() >= 9);
    }

    #[test]
    fn seek_positions_at_the_newest_covering_segment() {
        let dir = TempDir::new("tail-seek");
        let (mut wal, _) = Wal::open(dir.path(), KIND, SyncPolicy::Off).unwrap();
        for e in 1..=4 {
            wal.append(&commit(e)).unwrap();
        }
        wal.rotate(5).unwrap();
        for e in 5..=8 {
            wal.append(&commit(e)).unwrap();
        }
        wal.sync().unwrap();

        // Restore base epoch 4: epoch 5 lives in wal-5, so the reader
        // must start there, not at wal-0.
        let mut tail = TailReader::new(dir.path(), KIND);
        tail.seek(4);
        let out = tail.poll().unwrap();
        assert_eq!(out.records, (5..=8).map(commit).collect::<Vec<_>>());

        // Restore base epoch 2: only wal-0 can hold epoch 3. The
        // re-read overlaps epochs the restore already covers — the
        // caller's replay skips those.
        let mut tail = TailReader::new(dir.path(), KIND);
        tail.seek(2);
        let out = tail.poll().unwrap();
        assert_eq!(out.records, (1..=8).map(commit).collect::<Vec<_>>());
    }

    #[test]
    fn foreign_directory_is_a_typed_error() {
        let dir = TempDir::new("tail-kind");
        let (mut wal, _) = Wal::open(dir.path(), KIND, SyncPolicy::Off).unwrap();
        wal.append(&commit(1)).unwrap();
        wal.sync().unwrap();

        let mut tail = TailReader::new(dir.path(), KIND + 1);
        match tail.poll() {
            Err(WalError::StoreKindMismatch {
                expected, found, ..
            }) => assert_eq!((expected, found), (KIND + 1, KIND)),
            other => panic!("expected StoreKindMismatch, got {other:?}"),
        }
    }

    #[test]
    fn undecodable_record_is_corruption_not_a_retry() {
        let dir = TempDir::new("tail-invalid");
        let (mut wal, _) = Wal::open(dir.path(), KIND, SyncPolicy::Off).unwrap();
        wal.append(&commit(1)).unwrap();
        wal.sync().unwrap();

        // A checksum-valid frame whose payload kind is garbage.
        let seg = dir.path().join(segment_name(0));
        let mut bytes = fs::read(&seg).unwrap();
        let payload = [0xEEu8; 4];
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&record::crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        fs::write(&seg, &bytes).unwrap();

        let mut tail = TailReader::new(dir.path(), KIND);
        match tail.poll() {
            Err(WalError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
