//! The changelog record model and its binary codec.
//!
//! One [`WalRecord`] per catalog mutation, framed on disk as
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! payload = [kind: u8] [kind-specific body]
//! ```
//!
//! All integers are little-endian; strings are a `u32` byte length
//! followed by UTF-8 bytes; floats travel as their IEEE-754 bit
//! patterns (`f64::to_bits`), so a round trip is bit-exact — including
//! NaN payloads and signed zeros. There is no varint or delta coding:
//! the format optimizes for auditability over density (a full
//! paper-scale replay logs a few hundred kilobytes).
//!
//! The checksum is CRC-32 (IEEE, reflected) over the payload only; the
//! length prefix is implicitly validated by the checksum window. How a
//! failed frame is classified (torn tail vs corruption) is the segment
//! layer's decision — this module just reports what it saw.

use dh_core::UpdateOp;

/// Cap on a single record's payload, guarding the decoder against
/// allocating on a corrupt length prefix. Far above any real record
/// (the largest commits in the workspace are a few megabytes).
pub const MAX_RECORD_LEN: u32 = 256 << 20;

/// One durable catalog mutation, in commit order.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A column registration (publishes no epoch; ordered between the
    /// commits it appeared between).
    Register {
        /// The registered column name.
        column: String,
        /// The registration config, flattened to primitives.
        config: ConfigRecord,
    },
    /// One published `WriteBatch`: the ops of every column it touched.
    Commit {
        /// The epoch the batch published as. Strictly contiguous within
        /// one log: each commit record's epoch is its predecessor's + 1.
        epoch: u64,
        /// Per-column op runs, sorted by column name (the `WriteBatch`
        /// iteration order).
        columns: Vec<(String, Vec<UpdateOp>)>,
    },
    /// A completed *rebuild* that changed a column's borders or shape —
    /// shard count, algorithm, or memory budget — behind the epoch
    /// barrier. A rebuild's target is not derivable at replay time, so
    /// the record carries the plan deltas. `None` fields keep the
    /// column's value current at the barrier, exactly as the live call
    /// resolved them (a pure border rebalance carries all-`None`
    /// deltas).
    ///
    /// Retired formats: record kind 3 (the bare pre-rebuild `Reshard`)
    /// no longer decodes, and flag bit 8 (an ingestion-mode delta) is
    /// never written and ignored when read.
    Rebuild {
        /// The rebuilt column.
        column: String,
        /// The epoch barrier the rebuild drained to — always the epoch
        /// of the immediately preceding commit record.
        barrier: u64,
        /// The column's shape-change ordinal: `1` for the column's
        /// first logged rebuild, strictly increasing thereafter across
        /// the column's whole lifetime (checkpoints persist it, see
        /// [`ConfigRecord::rebuild_seq`]). Rebuilds publish no epoch,
        /// so back-to-back rebuilds share one barrier — the ordinal is
        /// what lets a replica tell a gap-rewind *re-read* of an
        /// applied record (`seq` not above its tracked ordinal) from a
        /// *distinct* second rebuild at the same barrier.
        seq: u64,
        /// Target shard count (`None` keeps the live count).
        shards: Option<u64>,
        /// Target algorithm legend label (`None` keeps the live one).
        spec: Option<String>,
        /// Target memory budget in bytes (`None` keeps the live one).
        memory_bytes: Option<u64>,
    },
}

/// A `dh_catalog` `ColumnConfig` flattened to primitives this crate can
/// serialize without depending on the catalog (the dependency points the
/// other way). The algorithm travels as its paper legend label, which
/// round-trips through `AlgoSpec`'s `FromStr`/`Display`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigRecord {
    /// `AlgoSpec` legend label (e.g. `"DC"`, `"AC40X"`).
    pub spec: String,
    /// Memory budget in bytes.
    pub memory_bytes: u64,
    /// Sampling seed.
    pub seed: u64,
    /// Shard plan, if the column was registered with one.
    pub plan: Option<PlanRecord>,
    /// Re-shard policy, if the column armed one.
    pub reshard: Option<ReshardPolicyRecord>,
    /// Autoscale policy, if the column armed one.
    pub autoscale: Option<AutoscaleRecord>,
    /// The column's *live* shape after any rebuilds, when it differs
    /// from the registration shape. Only checkpoints set this (so a
    /// restore re-applies the shape without replaying pruned rebuild
    /// records); register records always carry `None`.
    pub rebuilt: Option<ShapeRecord>,
    /// The column's last logged shape-change ordinal
    /// ([`WalRecord::Rebuild`]'s `seq`); `0` = never rebuilt. Like
    /// `rebuilt`, only checkpoints carry a nonzero value: a restored
    /// leader resumes the ordinal past everything it ever logged (the
    /// records themselves may be pruned), so it can never re-issue a
    /// `seq` a replica has already applied — and a replica restoring
    /// through the checkpoint knows which ordinals it covers.
    pub rebuild_seq: u64,
}

/// A flattened `ShardPlan`. On disk it is followed by a retired
/// ingestion-mode byte, written as 0 and ignored when read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanRecord {
    /// Inclusive domain lower bound.
    pub lo: i64,
    /// Inclusive domain upper bound.
    pub hi: i64,
    /// Shard count.
    pub shards: u64,
}

/// A flattened `ReshardPolicy`. The skew threshold travels as raw bits,
/// so configs compare and round-trip bit-exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReshardPolicyRecord {
    /// `skew_threshold` as IEEE-754 bits.
    pub skew_bits: u64,
    /// Minimum epochs between automatic attempts.
    pub min_interval_epochs: u64,
    /// Minimum routed ops before the skew ratio is judged.
    pub min_load: u64,
}

/// A flattened `AutoscalePolicy`. Like [`ReshardPolicyRecord`], the
/// float threshold travels as raw bits for bit-exact round trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoscaleRecord {
    /// Lower bound on the shard count.
    pub min_shards: u64,
    /// Upper bound on the shard count.
    pub max_shards: u64,
    /// Routed ops per epoch above which the shard count grows.
    pub scale_up_rate: u64,
    /// Routed ops per epoch at or below which the shard count shrinks.
    pub scale_down_rate: u64,
    /// `skew_threshold` (border-rebalance gate) as IEEE-754 bits.
    pub skew_bits: u64,
    /// Minimum epochs between automatic decisions.
    pub min_interval_epochs: u64,
    /// Minimum routed ops before the skew ratio is judged.
    pub min_load: u64,
}

/// A column's live shape — the part of its config a rebuild can change.
/// Carried by checkpoints (inside [`ConfigRecord::rebuilt`]) so a
/// restore reproduces the shape even when the rebuild records that
/// produced it are pruned. Like [`PlanRecord`], it is followed on disk
/// by a retired ingestion-mode byte, written as 0 and ignored when read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeRecord {
    /// Live shard count.
    pub shards: u64,
    /// Live algorithm legend label.
    pub spec: String,
    /// Live memory budget in bytes.
    pub memory_bytes: u64,
}

const KIND_REGISTER: u8 = 1;
const KIND_COMMIT: u8 = 2;
/// Retired: the bare border-move record of logs written before rebuild
/// ordinals existed. Nothing writes it, and decoding it is an error.
const KIND_RESHARD: u8 = 3;
const KIND_REBUILD: u8 = 4;

/// The retired ingestion-mode delta of a rebuild record: ignored when
/// read, never written.
const REBUILD_FLAG_CHANNEL: u8 = 8;

const OP_INSERT: u8 = 0;
const OP_DELETE: u8 = 1;

impl WalRecord {
    /// Serializes the record into its on-disk frame (length prefix,
    /// checksum, payload).
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut payload = Writer::new();
        match self {
            WalRecord::Register { column, config } => {
                payload.u8(KIND_REGISTER);
                payload.str_(column);
                config.encode(&mut payload);
            }
            WalRecord::Commit { epoch, columns } => {
                payload.u8(KIND_COMMIT);
                payload.u64(*epoch);
                payload.u32(columns.len() as u32);
                for (name, ops) in columns {
                    payload.str_(name);
                    payload.u32(ops.len() as u32);
                    for op in ops {
                        match op {
                            UpdateOp::Insert(v) => {
                                payload.u8(OP_INSERT);
                                payload.i64(*v);
                            }
                            UpdateOp::Delete(v) => {
                                payload.u8(OP_DELETE);
                                payload.i64(*v);
                            }
                        }
                    }
                }
            }
            WalRecord::Rebuild {
                column,
                barrier,
                seq,
                shards,
                spec,
                memory_bytes,
            } => {
                payload.u8(KIND_REBUILD);
                payload.str_(column);
                payload.u64(*barrier);
                payload.u64(*seq);
                let flags = u8::from(shards.is_some())
                    | (u8::from(spec.is_some()) << 1)
                    | (u8::from(memory_bytes.is_some()) << 2);
                payload.u8(flags);
                if let Some(shards) = shards {
                    payload.u64(*shards);
                }
                if let Some(spec) = spec {
                    payload.str_(spec);
                }
                if let Some(bytes) = memory_bytes {
                    payload.u64(*bytes);
                }
            }
        }
        let payload = payload.buf;
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }

    fn decode_payload(payload: &[u8]) -> Result<WalRecord, String> {
        let mut r = Reader::new(payload);
        let record = match r.u8()? {
            KIND_REGISTER => WalRecord::Register {
                column: r.str_()?,
                config: ConfigRecord::decode(&mut r)?,
            },
            KIND_COMMIT => {
                let epoch = r.u64()?;
                let n = r.u32()? as usize;
                let mut columns = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let name = r.str_()?;
                    let n_ops = r.u32()? as usize;
                    let mut ops = Vec::with_capacity(n_ops.min(1 << 16));
                    for _ in 0..n_ops {
                        let tag = r.u8()?;
                        let v = r.i64()?;
                        ops.push(match tag {
                            OP_INSERT => UpdateOp::Insert(v),
                            OP_DELETE => UpdateOp::Delete(v),
                            other => return Err(format!("unknown op tag {other}")),
                        });
                    }
                    columns.push((name, ops));
                }
                WalRecord::Commit { epoch, columns }
            }
            KIND_RESHARD => {
                return Err(format!(
                    "retired record kind {KIND_RESHARD} (a pre-rebuild re-shard record); \
                     this log predates rebuild ordinals and cannot be replayed"
                ))
            }
            KIND_REBUILD => {
                let column = r.str_()?;
                let barrier = r.u64()?;
                let seq = r.u64()?;
                let flags = r.u8()?;
                if flags & !0b1111 != 0 {
                    return Err(format!("unknown rebuild flags {flags:#04x}"));
                }
                let shards = if flags & 1 != 0 { Some(r.u64()?) } else { None };
                let spec = if flags & 2 != 0 {
                    Some(r.str_()?)
                } else {
                    None
                };
                let memory_bytes = if flags & 4 != 0 { Some(r.u64()?) } else { None };
                if flags & REBUILD_FLAG_CHANNEL != 0 {
                    r.u8()?; // retired ingestion-mode delta
                }
                WalRecord::Rebuild {
                    column,
                    barrier,
                    seq,
                    shards,
                    spec,
                    memory_bytes,
                }
            }
            other => return Err(format!("unknown record kind {other}")),
        };
        r.finish()?;
        Ok(record)
    }
}

impl ConfigRecord {
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.str_(&self.spec);
        w.u64(self.memory_bytes);
        w.u64(self.seed);
        let flags = u8::from(self.plan.is_some())
            | (u8::from(self.reshard.is_some()) << 1)
            | (u8::from(self.autoscale.is_some()) << 2)
            | (u8::from(self.rebuilt.is_some()) << 3)
            | (u8::from(self.rebuild_seq != 0) << 4);
        w.u8(flags);
        if let Some(plan) = &self.plan {
            w.i64(plan.lo);
            w.i64(plan.hi);
            w.u64(plan.shards);
            w.u8(0); // retired ingestion-mode byte
        }
        if let Some(policy) = &self.reshard {
            w.u64(policy.skew_bits);
            w.u64(policy.min_interval_epochs);
            w.u64(policy.min_load);
        }
        if let Some(auto) = &self.autoscale {
            w.u64(auto.min_shards);
            w.u64(auto.max_shards);
            w.u64(auto.scale_up_rate);
            w.u64(auto.scale_down_rate);
            w.u64(auto.skew_bits);
            w.u64(auto.min_interval_epochs);
            w.u64(auto.min_load);
        }
        if let Some(shape) = &self.rebuilt {
            w.u64(shape.shards);
            w.str_(&shape.spec);
            w.u64(shape.memory_bytes);
            w.u8(0); // retired ingestion-mode byte
        }
        if self.rebuild_seq != 0 {
            w.u64(self.rebuild_seq);
        }
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<ConfigRecord, String> {
        let spec = r.str_()?;
        let memory_bytes = r.u64()?;
        let seed = r.u64()?;
        let flags = r.u8()?;
        if flags & !0b1_1111 != 0 {
            return Err(format!("unknown config flags {flags:#04x}"));
        }
        let plan = if flags & 1 != 0 {
            let plan = PlanRecord {
                lo: r.i64()?,
                hi: r.i64()?,
                shards: r.u64()?,
            };
            r.u8()?; // retired ingestion-mode byte
            Some(plan)
        } else {
            None
        };
        let reshard = if flags & 2 != 0 {
            Some(ReshardPolicyRecord {
                skew_bits: r.u64()?,
                min_interval_epochs: r.u64()?,
                min_load: r.u64()?,
            })
        } else {
            None
        };
        let autoscale = if flags & 4 != 0 {
            Some(AutoscaleRecord {
                min_shards: r.u64()?,
                max_shards: r.u64()?,
                scale_up_rate: r.u64()?,
                scale_down_rate: r.u64()?,
                skew_bits: r.u64()?,
                min_interval_epochs: r.u64()?,
                min_load: r.u64()?,
            })
        } else {
            None
        };
        let rebuilt = if flags & 8 != 0 {
            let shape = ShapeRecord {
                shards: r.u64()?,
                spec: r.str_()?,
                memory_bytes: r.u64()?,
            };
            r.u8()?; // retired ingestion-mode byte
            Some(shape)
        } else {
            None
        };
        let rebuild_seq = if flags & 16 != 0 { r.u64()? } else { 0 };
        Ok(ConfigRecord {
            spec,
            memory_bytes,
            seed,
            plan,
            reshard,
            autoscale,
            rebuilt,
            rebuild_seq,
        })
    }
}

/// What one framing attempt against a byte buffer produced.
///
/// Public so transports outside the segment layer (the `dh_site` wire
/// protocol) can reuse the exact on-disk framing for messages in flight.
// `Record` dwarfs the other variants (a `ConfigRecord` with its
// optional policies is a few hundred bytes), but frames are decoded
// one at a time and consumed immediately — never collected — so the
// size gap costs nothing and boxing would tax every replay match.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Frame {
    /// Clean end of buffer: `at == buf.len()`.
    Done,
    /// The buffer ends mid-frame, or the frame's checksum fails — the
    /// shape of a crash mid-append. The segment layer truncates here if
    /// this is the last segment, or reports corruption if not.
    Torn,
    /// A checksum-valid record.
    Record {
        /// The decoded record.
        record: WalRecord,
        /// Offset of the next frame.
        next: usize,
    },
    /// The checksum passed but the payload does not decode: genuine
    /// corruption (or a format version skew), never a torn write.
    Invalid {
        /// What failed to decode.
        why: String,
    },
}

/// Reads the frame starting at `at`.
pub fn read_frame(buf: &[u8], at: usize) -> Frame {
    if at == buf.len() {
        return Frame::Done;
    }
    if buf.len() - at < 8 {
        return Frame::Torn;
    }
    let len = u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
    if len > MAX_RECORD_LEN as usize || buf.len() - at - 8 < len {
        return Frame::Torn;
    }
    let crc = u32::from_le_bytes(buf[at + 4..at + 8].try_into().expect("4 bytes"));
    let payload = &buf[at + 8..at + 8 + len];
    if crc32(payload) != crc {
        return Frame::Torn;
    }
    match WalRecord::decode_payload(payload) {
        Ok(record) => Frame::Record {
            record,
            next: at + 8 + len,
        },
        Err(why) => Frame::Invalid { why },
    }
}

/// Writes one `[len][crc32][payload]` frame — the exact on-disk record
/// framing — to a byte stream. The transport face of the codec: what
/// `encode_frame` produces for segments, this produces for sockets.
pub fn write_framed(w: &mut impl std::io::Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one `[len][crc32][payload]` frame from a byte stream, returning
/// the checksum-verified payload.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary (the peer
/// closed between messages). A mid-frame EOF surfaces as
/// `UnexpectedEof`; an oversized length prefix (> [`MAX_RECORD_LEN`]) or
/// a checksum mismatch surfaces as `InvalidData` — a stream, unlike a
/// segment tail, has no "torn but recoverable" state.
pub fn read_framed(r: &mut impl std::io::Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 8];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "stream ended mid-frame header",
                ))
            }
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if len > MAX_RECORD_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_RECORD_LEN}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    if crc32(&payload) != crc {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame checksum mismatch",
        ));
    }
    Ok(Some(payload))
}

/// Little-endian byte sink for record, checkpoint, and wire-message
/// bodies. Shared with the `dh_site` protocol so every serialized body
/// in the workspace speaks the same dialect.
#[derive(Default)]
pub struct Writer {
    pub(crate) buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (bit-exact round
    /// trip, NaN payloads included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a string as a `u32` byte length followed by UTF-8 bytes.
    pub fn str_(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Consumes the writer, yielding the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Checked little-endian reader; every getter fails loudly on underrun
/// so a decode error is always a `Result`, never a panic.
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte buffer for checked sequential reads.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.at < n {
            return Err(format!(
                "payload underrun: wanted {n} bytes at {}, have {}",
                self.at,
                self.buf.len() - self.at
            ));
        }
        let slice = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str_(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("invalid utf-8 string: {e}"))
    }

    /// Asserts the payload was consumed exactly — trailing bytes mean a
    /// corrupt or version-skewed record.
    pub fn finish(&self) -> Result<(), String> {
        if self.at != self.buf.len() {
            return Err(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.at
            ));
        }
        Ok(())
    }
}

/// CRC-32 (IEEE 802.3, reflected — the zlib/PNG polynomial), table-driven.
pub fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Register {
                column: "orders.amount".into(),
                config: ConfigRecord {
                    spec: "AC40X".into(),
                    memory_bytes: 1024,
                    seed: 7,
                    plan: Some(PlanRecord {
                        lo: -5,
                        hi: 4999,
                        shards: 8,
                    }),
                    reshard: Some(ReshardPolicyRecord {
                        skew_bits: 1.25f64.to_bits(),
                        min_interval_epochs: 8,
                        min_load: 2048,
                    }),
                    autoscale: Some(AutoscaleRecord {
                        min_shards: 1,
                        max_shards: 32,
                        scale_up_rate: 4096,
                        scale_down_rate: 64,
                        skew_bits: 2.0f64.to_bits(),
                        min_interval_epochs: 16,
                        min_load: 4096,
                    }),
                    rebuilt: Some(ShapeRecord {
                        shards: 16,
                        spec: "DADO".into(),
                        memory_bytes: 2048,
                    }),
                    rebuild_seq: 3,
                },
            },
            WalRecord::Register {
                column: "t".into(),
                config: ConfigRecord {
                    spec: "DC".into(),
                    memory_bytes: 512,
                    seed: 0,
                    plan: None,
                    reshard: None,
                    autoscale: None,
                    rebuilt: None,
                    rebuild_seq: 0,
                },
            },
            WalRecord::Commit {
                epoch: 42,
                columns: vec![
                    (
                        "orders.amount".into(),
                        vec![UpdateOp::Insert(i64::MIN), UpdateOp::Delete(i64::MAX)],
                    ),
                    ("t".into(), vec![]),
                ],
            },
            WalRecord::Rebuild {
                column: "orders.amount".into(),
                barrier: 43,
                seq: 4,
                shards: Some(16),
                spec: Some("DADO".into()),
                memory_bytes: None,
            },
            // A delta-less rebuild: a pure border rebalance.
            WalRecord::Rebuild {
                column: "t".into(),
                barrier: 44,
                seq: 1,
                shards: None,
                spec: None,
                memory_bytes: None,
            },
        ]
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        let records = sample_records();
        for r in &records {
            buf.extend_from_slice(&r.encode_frame());
        }
        let mut at = 0;
        let mut decoded = Vec::new();
        loop {
            match read_frame(&buf, at) {
                Frame::Done => break,
                Frame::Record { record, next } => {
                    decoded.push(record);
                    at = next;
                }
                other => panic!("unexpected frame: {other:?}"),
            }
        }
        assert_eq!(decoded, records);
    }

    #[test]
    fn nan_skew_threshold_round_trips_bit_exactly() {
        let bits = f64::NAN.to_bits() | 0xDEAD;
        let record = WalRecord::Register {
            column: "c".into(),
            config: ConfigRecord {
                spec: "DADO".into(),
                memory_bytes: 1,
                seed: 1,
                plan: None,
                reshard: Some(ReshardPolicyRecord {
                    skew_bits: bits,
                    min_interval_epochs: 1,
                    min_load: 1,
                }),
                autoscale: Some(AutoscaleRecord {
                    min_shards: 1,
                    max_shards: 4,
                    scale_up_rate: 10,
                    scale_down_rate: 1,
                    skew_bits: bits,
                    min_interval_epochs: 1,
                    min_load: 1,
                }),
                rebuilt: None,
                rebuild_seq: 0,
            },
        };
        let frame = record.encode_frame();
        match read_frame(&frame, 0) {
            Frame::Record { record: r, .. } => assert_eq!(r, record),
            other => panic!("unexpected frame: {other:?}"),
        }
    }

    #[test]
    fn old_format_frames_still_decode() {
        // A pre-rebuild-era register payload, hand-rolled byte-for-byte:
        // flags carry only plan|reshard bits, no autoscale/rebuilt
        // trailers. The decoder must accept it and fill the new fields
        // with None.
        let mut w = Writer::new();
        w.u8(KIND_REGISTER);
        w.str_("c");
        w.str_("DC"); // spec
        w.u64(512); // memory_bytes
        w.u64(3); // seed
        w.u8(0b11); // flags: plan + reshard only
        w.i64(0); // plan.lo
        w.i64(999); // plan.hi
        w.u64(4); // plan.shards
        w.u8(1); // retired plan.channel byte: ignored
        w.u64(2.0f64.to_bits()); // reshard.skew_bits
        w.u64(16); // reshard.min_interval_epochs
        w.u64(4096); // reshard.min_load
        let payload = w.into_bytes();
        let decoded = WalRecord::decode_payload(&payload).unwrap();
        assert_eq!(
            decoded,
            WalRecord::Register {
                column: "c".into(),
                config: ConfigRecord {
                    spec: "DC".into(),
                    memory_bytes: 512,
                    seed: 3,
                    plan: Some(PlanRecord {
                        lo: 0,
                        hi: 999,
                        shards: 4,
                    }),
                    reshard: Some(ReshardPolicyRecord {
                        skew_bits: 2.0f64.to_bits(),
                        min_interval_epochs: 16,
                        min_load: 4096,
                    }),
                    autoscale: None,
                    rebuilt: None,
                    rebuild_seq: 0,
                },
            }
        );

        // A rebuild that carries the retired ingestion-mode delta
        // (flag bit 8) decodes with the delta dropped.
        let mut w = Writer::new();
        w.u8(KIND_REBUILD);
        w.str_("c");
        w.u64(7); // barrier
        w.u64(2); // seq
        w.u8(0b1001); // shards + retired channel delta
        w.u64(8); // shards
        w.u8(1); // channel
        let decoded = WalRecord::decode_payload(&w.into_bytes()).unwrap();
        assert_eq!(
            decoded,
            WalRecord::Rebuild {
                column: "c".into(),
                barrier: 7,
                seq: 2,
                shards: Some(8),
                spec: None,
                memory_bytes: None,
            }
        );

        // A checkpoint shape whose retired channel byte is set decodes
        // like one written today.
        let shaped = ConfigRecord {
            spec: "DC".into(),
            memory_bytes: 512,
            seed: 3,
            plan: None,
            reshard: None,
            autoscale: None,
            rebuilt: Some(ShapeRecord {
                shards: 2,
                spec: "DADO".into(),
                memory_bytes: 256,
            }),
            rebuild_seq: 0,
        };
        let mut w = Writer::new();
        shaped.encode(&mut w);
        let mut bytes = w.into_bytes();
        let last = bytes.len() - 1;
        assert_eq!(bytes[last], 0, "the shape's retired byte is written as 0");
        bytes[last] = 1;
        assert_eq!(
            ConfigRecord::decode(&mut Reader::new(&bytes)).unwrap(),
            shaped
        );
    }

    #[test]
    fn retired_reshard_records_are_a_decode_error() {
        let mut w = Writer::new();
        w.u8(KIND_RESHARD);
        w.str_("c");
        w.u64(7);
        let payload = w.into_bytes();
        let why = WalRecord::decode_payload(&payload).unwrap_err();
        assert!(why.contains("retired record kind 3"), "{why}");
        let mut frame = Vec::new();
        write_framed(&mut frame, &payload).unwrap();
        assert!(matches!(read_frame(&frame, 0), Frame::Invalid { .. }));
    }

    #[test]
    fn unknown_flag_bits_are_rejected_not_skipped() {
        // Config flags above the known window are a version skew, not
        // silently droppable state.
        let mut w = Writer::new();
        w.u8(KIND_REGISTER);
        w.str_("c");
        w.str_("DC");
        w.u64(1);
        w.u64(1);
        w.u8(0b10_0000);
        assert!(WalRecord::decode_payload(&w.into_bytes())
            .unwrap_err()
            .contains("unknown config flags"));

        let mut w = Writer::new();
        w.u8(KIND_REBUILD);
        w.str_("c");
        w.u64(1); // barrier
        w.u64(1); // seq
        w.u8(0b1_0000);
        assert!(WalRecord::decode_payload(&w.into_bytes())
            .unwrap_err()
            .contains("unknown rebuild flags"));
    }

    #[test]
    fn every_truncation_is_torn_or_a_clean_prefix() {
        let mut buf = Vec::new();
        let mut boundaries = vec![0usize];
        for r in sample_records() {
            buf.extend_from_slice(&r.encode_frame());
            boundaries.push(buf.len());
        }
        for cut in 0..=buf.len() {
            let slice = &buf[..cut];
            let mut at = 0;
            let mut seen = 0;
            let ended = loop {
                match read_frame(slice, at) {
                    Frame::Done => break "done",
                    Frame::Torn => break "torn",
                    Frame::Record { next, .. } => {
                        seen += 1;
                        at = next;
                    }
                    Frame::Invalid { why } => panic!("truncation produced Invalid: {why}"),
                }
            };
            // Records decoded = frames fully inside the cut; Done only
            // at exact frame boundaries.
            let whole = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(seen, whole, "cut at {cut}");
            assert_eq!(ended == "done", boundaries.contains(&cut), "cut at {cut}");
        }
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let frame = sample_records()[0].encode_frame();
        // Flip one bit in every payload byte position; the frame must
        // read as Torn (checksum catches it), never as a valid record.
        for i in 8..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x10;
            match read_frame(&bad, 0) {
                Frame::Torn => {}
                other => panic!("flip at {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic zlib test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn oversized_length_prefix_reads_as_torn() {
        let mut frame = sample_records()[1].encode_frame();
        frame[0..4].copy_from_slice(&(MAX_RECORD_LEN + 1).to_le_bytes());
        assert!(matches!(read_frame(&frame, 0), Frame::Torn));
    }

    #[test]
    fn stream_framing_round_trips_and_ends_cleanly() {
        let mut stream = Vec::new();
        let payloads: Vec<Vec<u8>> = vec![b"hello".to_vec(), Vec::new(), vec![0xFF; 300]];
        for p in &payloads {
            write_framed(&mut stream, p).unwrap();
        }
        let mut cursor = &stream[..];
        for p in &payloads {
            assert_eq!(read_framed(&mut cursor).unwrap().as_deref(), Some(&p[..]));
        }
        // Clean EOF at a frame boundary is None, repeatedly.
        assert_eq!(read_framed(&mut cursor).unwrap(), None);
        assert_eq!(read_framed(&mut cursor).unwrap(), None);
    }

    #[test]
    fn stream_framing_rejects_damage() {
        let mut stream = Vec::new();
        write_framed(&mut stream, b"payload").unwrap();
        // Mid-frame EOF (header, then body).
        for cut in [4, stream.len() - 2] {
            let err = read_framed(&mut &stream[..cut]).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        }
        // A flipped payload bit fails the checksum.
        let mut bad = stream.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        let err = read_framed(&mut &bad[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // An oversized length prefix is rejected before allocating.
        let mut huge = stream;
        huge[0..4].copy_from_slice(&(MAX_RECORD_LEN + 1).to_le_bytes());
        let err = read_framed(&mut &huge[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
