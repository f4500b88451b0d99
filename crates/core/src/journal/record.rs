//! Binary record format of the write-ahead action journal.
//!
//! A journal file is the 8-byte magic [`MAGIC`] followed by a sequence of
//! *frames*. Each frame is
//!
//! ```text
//! [payload length: u32 LE] [CRC-32 (IEEE) of payload: u32 LE] [payload]
//! ```
//!
//! and each payload is a tag byte plus the record's fields in the shared
//! little-endian [`wire`] layout (see [`JournalRecord::encode`]). Frames
//! and values come from the one durable codec, [`vadalog::frame`], whose
//! decoder is **total**: arbitrary byte soup decodes to a structured
//! [`DecodeError`], never a panic. Recovery treats the first undecodable
//! frame as the torn tail of a crashed writer and truncates there.
//!
//! Unlike snapshots and artifacts, the journal has no version or
//! fingerprint header: it is appended to record by record, so both ride
//! in its first record, [`JournalRecord::Begin`].

use crate::anonymize::AnonymizationAction;
use vadalog::frame::wire::{self, put_str, put_u32, put_u64, put_value};
use vadalog::frame::{put_frame, read_frame};

pub use vadalog::frame::DecodeError;

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

fn read_action(r: &mut wire::Reader<'_>) -> Result<AnonymizationAction, DecodeError> {
    match r.u8()? {
        0 => Ok(AnonymizationAction::Suppress {
            row: r.u64()? as usize,
            attr: r.string()?,
            previous: r.value()?,
        }),
        1 => Ok(AnonymizationAction::Recode {
            attr: r.string()?,
            from: r.value()?,
            to: r.value()?,
            rows_affected: r.u64()? as usize,
        }),
        2 => Ok(AnonymizationAction::Exhausted {
            row: r.u64()? as usize,
        }),
        t => Err(DecodeError::BadTag(t)),
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
        let mut frame = Vec::with_capacity(payload.len() + vadalog::frame::FRAME_OVERHEAD);
        put_frame(&mut frame, &payload);
        frame
    }

    /// Decode one payload (the bytes *after* the frame header, whose CRC
    /// has already been verified).
    fn decode_payload(payload: &[u8]) -> Result<JournalRecord, DecodeError> {
        let mut c = wire::Reader::new(payload);
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
                action: read_action(&mut c)?,
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
            return Err(DecodeError::Invalid("trailing bytes after the record"));
        }
        Ok(rec)
    }
}

/// Decode the next frame starting at `bytes[offset..]`. Returns the
/// record and the offset just past it, or the error that makes
/// `offset` the truncation point.
pub fn decode_frame(bytes: &[u8], offset: usize) -> Result<(JournalRecord, usize), DecodeError> {
    let (payload, next) = read_frame(bytes, offset)?;
    Ok((JournalRecord::decode_payload(payload)?, next))
}

/// Walk a journal buffer's frames from just past the magic: each record
/// with the offset just past it, stopping at the first torn or corrupt
/// frame. Callers check the magic themselves.
pub fn records(bytes: &[u8]) -> impl Iterator<Item = (JournalRecord, usize)> + '_ {
    let mut offset = MAGIC.len();
    std::iter::from_fn(move || {
        let (rec, next) = decode_frame(bytes, offset).ok()?;
        offset = next;
        Some((rec, next))
    })
}

/// The end offset of every well-formed frame of a journal buffer, in
/// order; empty when the magic is wrong. Exposed so the crash-matrix
/// tests can enumerate every record boundary as a kill point.
pub fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    if !bytes.starts_with(MAGIC) {
        return Vec::new();
    }
    records(bytes).map(|(_, end)| end).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vadalog::Value;

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
