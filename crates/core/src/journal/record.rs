//! Binary record format of the write-ahead action journal.
//!
//! A journal file is the 8-byte magic [`MAGIC`] followed by a sequence of
//! *frames*. Each frame is
//!
//! ```text
//! [payload length: u32 LE] [CRC-32 (IEEE) of payload: u32 LE] [payload]
//! ```
//!
//! and each payload is a tag byte plus the record's fields in a fixed
//! little-endian layout (see [`JournalRecord::encode`]). The decoder is
//! **total**: every length is bounds-checked against the remaining bytes
//! and every tag is matched exhaustively, so arbitrary byte soup decodes
//! to a structured [`DecodeError`], never a panic. Recovery treats the
//! first undecodable frame as the torn tail of a crashed writer and
//! truncates there.

use crate::anonymize::AnonymizationAction;
use std::fmt;
use vadalog::Value;

/// File magic identifying a Vada-SA action journal, version 1 framing.
pub const MAGIC: &[u8; 8] = b"VADASAJ1";

/// Record-format version carried in the [`JournalRecord::Begin`] record.
/// Version 2 added the [`JournalRecord::Progress`] record.
pub const FORMAT_VERSION: u32 = 2;

/// One record of the action journal.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// First record of every journal: identifies the run it belongs to.
    Begin {
        /// Record-format version ([`FORMAT_VERSION`]).
        version: u32,
        /// Fingerprint of (input table, dictionary roles, cycle
        /// semantics, plug-in names) — see
        /// [`fingerprint`](crate::journal::fingerprint).
        fingerprint: u64,
        /// Name of the risk measure driving the run.
        measure: String,
        /// Name of the anonymizer driving the run.
        anonymizer: String,
        /// Rows in the input table (a cheap cross-check).
        rows: u64,
    },
    /// One committed anonymization action.
    Action {
        /// 0-based cycle iteration the action belongs to.
        iteration: u64,
        /// The violating tuple the decision targeted.
        row: u64,
        /// Bit pattern of the tuple's risk when the decision was taken.
        risk_bits: u64,
        /// The measure that produced the violating score.
        measure: String,
        /// The action applied.
        action: AnonymizationAction,
    },
    /// Iteration boundary: everything up to here is replayable.
    Commit {
        /// Completed iterations after this commit (1-based count).
        iterations: u64,
        /// Running total of labelled nulls injected.
        nulls_injected: u64,
        /// Running total of global recodings.
        recodings: u64,
        /// Tuples violating the threshold before the first step.
        initial_risky: u64,
        /// Tuples the anonymizer has given up on so far.
        exhausted: u64,
    },
    /// A snapshot file covering the state after `iterations` completed
    /// iterations was durably written.
    Snapshot {
        /// Completed iterations the snapshot covers.
        iterations: u64,
        /// Snapshot file name, relative to the journal directory.
        file: String,
    },
    /// The run degraded (cap / deadline / cancel / plug-in panic).
    /// Everything after this marker is *not* replayed: resume re-runs the
    /// loop from the last commit toward convergence instead.
    Degraded {
        /// Rendered degradation trigger, for the log reader.
        trigger: String,
    },
    /// The run finished.
    Finished {
        /// `true` when the cycle converged (risk ≤ T everywhere).
        converged: bool,
    },
    /// Convergence trajectory sample, written just before each `Commit`:
    /// how many tuples still violated the threshold when the iteration
    /// started. External monitors (`vadasa_status`) fit this series via
    /// [`crate::progress`] to estimate remaining iterations; recovery
    /// ignores it.
    Progress {
        /// 0-based iteration the sample belongs to.
        iteration: u64,
        /// Tuples above the risk threshold at the start of the iteration.
        rows_at_risk: u64,
    },
}

/// Why a frame or payload could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes remained than the frame header or a field required.
    Truncated,
    /// The payload CRC did not match the frame header.
    BadChecksum,
    /// An unknown record, action or value tag was read.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "record truncated"),
            DecodeError::BadChecksum => write!(f, "checksum mismatch"),
            DecodeError::BadTag(t) => write!(f, "unknown tag {t:#04x}"),
            DecodeError::BadUtf8 => write!(f, "string field is not UTF-8"),
        }
    }
}

/// CRC-32 (IEEE) of `bytes`, as used by the journal frame headers: the
/// artifact codec's implementation, so every durable format shares one.
pub use vadalog::backend::crc32;

// --- encoding helpers ---

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Append the binary encoding of one [`Value`] to `out`. Public within
/// the journal module family because the run fingerprint hashes cell
/// values through the same encoding.
pub(crate) fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Bool(b) => {
            out.push(0);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(1);
            put_u64(out, *i as u64);
        }
        Value::Float(f) => {
            out.push(2);
            put_u64(out, f.to_bits());
        }
        Value::Str(s) => {
            out.push(3);
            put_str(out, s);
        }
        Value::Null(n) => {
            out.push(4);
            put_u64(out, *n);
        }
        Value::Set(items) => {
            out.push(5);
            put_u32(out, items.len() as u32);
            for item in items.iter() {
                put_value(out, item);
            }
        }
        Value::Tuple(items) => {
            out.push(6);
            put_u32(out, items.len() as u32);
            for item in items.iter() {
                put_value(out, item);
            }
        }
    }
}

fn put_action(out: &mut Vec<u8>, action: &AnonymizationAction) {
    match action {
        AnonymizationAction::Suppress {
            row,
            attr,
            previous,
        } => {
            out.push(0);
            put_u64(out, *row as u64);
            put_str(out, attr);
            put_value(out, previous);
        }
        AnonymizationAction::Recode {
            attr,
            from,
            to,
            rows_affected,
        } => {
            out.push(1);
            put_str(out, attr);
            put_value(out, from);
            put_value(out, to);
            put_u64(out, *rows_affected as u64);
        }
        AnonymizationAction::Exhausted { row } => {
            out.push(2);
            put_u64(out, *row as u64);
        }
    }
}

// --- decoding helpers: a bounds-checked cursor over a byte slice ---

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.bytes.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    fn value(&mut self) -> Result<Value, DecodeError> {
        match self.u8()? {
            0 => Ok(Value::Bool(self.u8()? != 0)),
            1 => Ok(Value::Int(self.u64()? as i64)),
            2 => Ok(Value::Float(f64::from_bits(self.u64()?))),
            3 => Ok(Value::str(self.string()?)),
            4 => Ok(Value::Null(self.u64()?)),
            5 => {
                let n = self.u32()? as usize;
                // each element is at least 2 bytes; reject absurd counts
                // before allocating
                if n > self.bytes.len().saturating_sub(self.pos) {
                    return Err(DecodeError::Truncated);
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value()?);
                }
                Ok(Value::set(items))
            }
            6 => {
                let n = self.u32()? as usize;
                if n > self.bytes.len().saturating_sub(self.pos) {
                    return Err(DecodeError::Truncated);
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value()?);
                }
                Ok(Value::Tuple(std::sync::Arc::new(items)))
            }
            t => Err(DecodeError::BadTag(t)),
        }
    }

    fn action(&mut self) -> Result<AnonymizationAction, DecodeError> {
        match self.u8()? {
            0 => Ok(AnonymizationAction::Suppress {
                row: self.u64()? as usize,
                attr: self.string()?,
                previous: self.value()?,
            }),
            1 => Ok(AnonymizationAction::Recode {
                attr: self.string()?,
                from: self.value()?,
                to: self.value()?,
                rows_affected: self.u64()? as usize,
            }),
            2 => Ok(AnonymizationAction::Exhausted {
                row: self.u64()? as usize,
            }),
            t => Err(DecodeError::BadTag(t)),
        }
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

impl JournalRecord {
    /// Encode the record as one framed journal entry (length + CRC +
    /// payload), ready to append to the journal file.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(64);
        match self {
            JournalRecord::Begin {
                version,
                fingerprint,
                measure,
                anonymizer,
                rows,
            } => {
                payload.push(0);
                put_u32(&mut payload, *version);
                put_u64(&mut payload, *fingerprint);
                put_str(&mut payload, measure);
                put_str(&mut payload, anonymizer);
                put_u64(&mut payload, *rows);
            }
            JournalRecord::Action {
                iteration,
                row,
                risk_bits,
                measure,
                action,
            } => {
                payload.push(1);
                put_u64(&mut payload, *iteration);
                put_u64(&mut payload, *row);
                put_u64(&mut payload, *risk_bits);
                put_str(&mut payload, measure);
                put_action(&mut payload, action);
            }
            JournalRecord::Commit {
                iterations,
                nulls_injected,
                recodings,
                initial_risky,
                exhausted,
            } => {
                payload.push(2);
                put_u64(&mut payload, *iterations);
                put_u64(&mut payload, *nulls_injected);
                put_u64(&mut payload, *recodings);
                put_u64(&mut payload, *initial_risky);
                put_u64(&mut payload, *exhausted);
            }
            JournalRecord::Snapshot { iterations, file } => {
                payload.push(3);
                put_u64(&mut payload, *iterations);
                put_str(&mut payload, file);
            }
            JournalRecord::Degraded { trigger } => {
                payload.push(4);
                put_str(&mut payload, trigger);
            }
            JournalRecord::Finished { converged } => {
                payload.push(5);
                payload.push(u8::from(*converged));
            }
            JournalRecord::Progress {
                iteration,
                rows_at_risk,
            } => {
                payload.push(6);
                put_u64(&mut payload, *iteration);
                put_u64(&mut payload, *rows_at_risk);
            }
        }
        let mut frame = Vec::with_capacity(payload.len() + 8);
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        frame
    }

    /// Decode one payload (the bytes *after* the frame header, whose CRC
    /// has already been verified).
    fn decode_payload(payload: &[u8]) -> Result<JournalRecord, DecodeError> {
        let mut c = Cursor::new(payload);
        let rec = match c.u8()? {
            0 => JournalRecord::Begin {
                version: c.u32()?,
                fingerprint: c.u64()?,
                measure: c.string()?,
                anonymizer: c.string()?,
                rows: c.u64()?,
            },
            1 => JournalRecord::Action {
                iteration: c.u64()?,
                row: c.u64()?,
                risk_bits: c.u64()?,
                measure: c.string()?,
                action: c.action()?,
            },
            2 => JournalRecord::Commit {
                iterations: c.u64()?,
                nulls_injected: c.u64()?,
                recodings: c.u64()?,
                initial_risky: c.u64()?,
                exhausted: c.u64()?,
            },
            3 => JournalRecord::Snapshot {
                iterations: c.u64()?,
                file: c.string()?,
            },
            4 => JournalRecord::Degraded {
                trigger: c.string()?,
            },
            5 => JournalRecord::Finished {
                converged: c.u8()? != 0,
            },
            6 => JournalRecord::Progress {
                iteration: c.u64()?,
                rows_at_risk: c.u64()?,
            },
            t => return Err(DecodeError::BadTag(t)),
        };
        if !c.done() {
            // trailing bytes inside a checksummed payload: not something a
            // torn write produces, but reject it as corrupt all the same
            return Err(DecodeError::Truncated);
        }
        Ok(rec)
    }
}

/// Decode the next frame starting at `bytes[offset..]`. Returns the
/// record and the offset just past it, or the error that makes
/// `offset` the truncation point.
pub fn decode_frame(bytes: &[u8], offset: usize) -> Result<(JournalRecord, usize), DecodeError> {
    let mut c = Cursor::new(&bytes[offset.min(bytes.len())..]);
    let len = c.u32()? as usize;
    let crc = c.u32()?;
    let payload = c.take(len)?;
    if crc32(payload) != crc {
        return Err(DecodeError::BadChecksum);
    }
    let rec = JournalRecord::decode_payload(payload)?;
    Ok((rec, offset + 8 + len))
}

/// Scan a journal byte buffer (starting after the magic) and return the
/// end offset of every well-formed frame, in order. Scanning stops at the
/// first torn or corrupt frame. Exposed so the crash-matrix tests can
/// enumerate every record boundary as a kill point.
pub fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut offset = MAGIC.len();
    if bytes.len() < offset || &bytes[..offset] != MAGIC {
        return out;
    }
    while offset < bytes.len() {
        match decode_frame(bytes, offset) {
            Ok((_, next)) => {
                out.push(next);
                offset = next;
            }
            Err(_) => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Begin {
                version: FORMAT_VERSION,
                fingerprint: 0xDEAD_BEEF_F00D_CAFE,
                measure: "k-anonymity".into(),
                anonymizer: "local-suppression".into(),
                rows: 7,
            },
            JournalRecord::Action {
                iteration: 3,
                row: 5,
                risk_bits: 1.0f64.to_bits(),
                measure: "k-anonymity".into(),
                action: AnonymizationAction::Suppress {
                    row: 5,
                    attr: "Sector".into(),
                    previous: Value::str("Textiles"),
                },
            },
            JournalRecord::Action {
                iteration: 4,
                row: 1,
                risk_bits: 0.75f64.to_bits(),
                measure: "re-identification".into(),
                action: AnonymizationAction::Recode {
                    attr: "Area".into(),
                    from: Value::str("Milano"),
                    to: Value::str("North"),
                    rows_affected: 2,
                },
            },
            JournalRecord::Action {
                iteration: 4,
                row: 2,
                risk_bits: 0.5f64.to_bits(),
                measure: "suda".into(),
                action: AnonymizationAction::Exhausted { row: 2 },
            },
            JournalRecord::Commit {
                iterations: 5,
                nulls_injected: 3,
                recodings: 1,
                initial_risky: 4,
                exhausted: 1,
            },
            JournalRecord::Snapshot {
                iterations: 4,
                file: "snapshot-4.vsnap".into(),
            },
            JournalRecord::Degraded {
                trigger: "deadline expired".into(),
            },
            JournalRecord::Finished { converged: true },
            JournalRecord::Progress {
                iteration: 4,
                rows_at_risk: 2,
            },
        ]
    }

    #[test]
    fn records_roundtrip() {
        for rec in samples() {
            let frame = rec.encode();
            let (back, next) = decode_frame(&frame, 0).unwrap();
            assert_eq!(back, rec);
            assert_eq!(next, frame.len());
        }
    }

    #[test]
    fn every_value_kind_roundtrips() {
        let values = vec![
            Value::Bool(true),
            Value::Int(-42),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::str("héllo ⊥ world"),
            Value::Null(9),
            Value::set([Value::Int(1), Value::str("x")]),
            Value::pair(Value::Int(1), Value::Null(2)),
        ];
        for v in values {
            let rec = JournalRecord::Action {
                iteration: 0,
                row: 0,
                risk_bits: 0,
                measure: "m".into(),
                action: AnonymizationAction::Suppress {
                    row: 0,
                    attr: "a".into(),
                    previous: v.clone(),
                },
            };
            let (back, _) = decode_frame(&rec.encode(), 0).unwrap();
            let JournalRecord::Action {
                action: AnonymizationAction::Suppress { previous, .. },
                ..
            } = back
            else {
                panic!("wrong record kind");
            };
            // bit-identical for floats: compare via total order
            assert_eq!(previous.cmp(&v), std::cmp::Ordering::Equal);
        }
    }

    #[test]
    fn crc_matches_known_vector() {
        // the classic IEEE test vector
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn truncation_and_corruption_are_errors_not_panics() {
        let frame = samples()[1].encode();
        // every prefix fails cleanly
        for k in 0..frame.len() {
            assert!(decode_frame(&frame[..k], 0).is_err(), "prefix {k}");
        }
        // every single-byte flip is caught by the CRC (or the header)
        for k in 0..frame.len() {
            let mut bad = frame.clone();
            bad[k] ^= 0xFF;
            assert!(decode_frame(&bad, 0).is_err(), "flip at {k}");
        }
    }

    #[test]
    fn byte_soup_never_panics() {
        let mut x = 0x12345678u64;
        for len in 0..200usize {
            let soup: Vec<u8> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            let _ = decode_frame(&soup, 0);
            let _ = frame_boundaries(&soup);
        }
    }

    #[test]
    fn boundaries_enumerate_records_and_stop_at_tear() {
        let mut bytes = MAGIC.to_vec();
        let recs = samples();
        for r in &recs {
            bytes.extend_from_slice(&r.encode());
        }
        let bounds = frame_boundaries(&bytes);
        assert_eq!(bounds.len(), recs.len());
        assert_eq!(*bounds.last().unwrap(), bytes.len());
        // tear the last record in half: it must vanish from the scan
        let torn = &bytes[..bytes.len() - 3];
        assert_eq!(frame_boundaries(torn).len(), recs.len() - 1);
    }
}
