//! Atomic snapshots of the anonymization cycle's working state.
//!
//! A checkpoint freezes everything the cycle needs to restart from an
//! iteration boundary: the working table (schema, rows, labelled-null
//! counter), the exhausted-tuple set, the running counters and the
//! [`WarmCycleProfile`]. A snapshot file is one [`vadalog::frame`] header
//! (magic [`SNAPSHOT_MAGIC`], [`SNAPSHOT_VERSION`], the run fingerprint)
//! and one CRC frame, written with [`write_atomic`] — so a crash mid-write
//! leaves either the previous snapshot or nothing under the final name.
//! A corrupt, foreign or unreadable snapshot is refused with a
//! [`StorageError`], and recovery falls back to an older snapshot or to
//! full replay from the original table.

use crate::cycle::WarmCycleProfile;
use crate::model::MicrodataDb;
use std::collections::{BTreeSet, HashMap};
use std::io;
use std::path::Path;
use vadalog::backend::{write_atomic, DurableIo, FileIo, FileKind, StorageError};
use vadalog::frame::wire::{put_str, put_u32, put_u64, put_value};
use vadalog::frame::{self, DecodeError};
use vadalog::Value;

/// File magic identifying a Vada-SA cycle snapshot on the shared header.
///
/// The table is stored **column-wise with per-column value
/// dictionaries**: each column writes its distinct values once (first
/// appearance order) followed by one `u32` code per row. Survey microdata
/// repeats values heavily, so snapshots shrink roughly by the average
/// equivalence-class size compared to a row-major layout. Snapshots of
/// earlier layouts (`VADASAS1`, `VADASAS2`) fail with
/// [`StorageError::BadMagic`] and recovery falls back to journal replay,
/// which is always available.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"VADASAS3";

/// Payload layout version written into the snapshot header.
pub const SNAPSHOT_VERSION: u32 = 1;

/// A frozen cycle state at an iteration boundary.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Completed iterations the state reflects.
    pub iterations: u64,
    /// Fingerprint of the run this snapshot belongs to (must match the
    /// journal's `Begin` record to be eligible during recovery).
    pub fingerprint: u64,
    /// The working table, mid-anonymization.
    pub db: MicrodataDb,
    /// Labelled-null counter of the working table at snapshot time.
    pub next_null: u64,
    /// Rows the anonymizer has exhausted so far.
    pub exhausted: BTreeSet<usize>,
    /// Labelled nulls injected so far.
    pub nulls_injected: u64,
    /// Global recodings applied so far.
    pub recodings: u64,
    /// Tuples at risk before the first iteration.
    pub initial_risky: u64,
    /// Warm-start counters accumulated so far (informational; a resumed
    /// run re-evaluates its first iteration cold regardless).
    pub warm: WarmCycleProfile,
}

impl Checkpoint {
    /// Encode the checkpoint as a complete snapshot file image.
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(4096);
        put_u64(&mut p, self.iterations);
        put_u64(&mut p, self.next_null);
        put_u64(&mut p, self.nulls_injected);
        put_u64(&mut p, self.recodings);
        put_u64(&mut p, self.initial_risky);
        let w = &self.warm;
        for c in [
            w.warm_evals,
            w.cold_evals,
            w.patched_facts,
            w.strata_skipped,
            w.fallback_to_cold,
            w.reused_index_bytes,
        ] {
            put_u64(&mut p, c);
        }
        put_u32(&mut p, self.exhausted.len() as u32);
        for row in &self.exhausted {
            put_u64(&mut p, *row as u64);
        }
        put_str(&mut p, &self.db.name);
        let attrs = self.db.attributes();
        put_u32(&mut p, attrs.len() as u32);
        for a in attrs {
            put_str(&mut p, a);
        }
        put_u32(&mut p, self.db.len() as u32);
        // per-column dictionary encoding: distinct values once, then one
        // u32 code per row (codes in first-appearance order)
        let width = attrs.len();
        let mut dicts: Vec<Vec<&Value>> = vec![Vec::new(); width];
        let mut lookups: Vec<HashMap<&Value, u32>> = (0..width).map(|_| HashMap::new()).collect();
        let mut codes: Vec<Vec<u32>> = vec![Vec::with_capacity(self.db.len()); width];
        for row in self.db.iter_rows() {
            for (c, v) in row.iter().enumerate() {
                let dict = &mut dicts[c];
                let code = *lookups[c].entry(v).or_insert_with(|| {
                    dict.push(v);
                    (dict.len() - 1) as u32
                });
                codes[c].push(code);
            }
        }
        for c in 0..width {
            put_u32(&mut p, dicts[c].len() as u32);
            for v in &dicts[c] {
                put_value(&mut p, v);
            }
            for code in &codes[c] {
                put_u32(&mut p, *code);
            }
        }
        frame::encode(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, self.fingerprint, &p)
    }

    /// Decode a snapshot file image produced by [`encode`](Self::encode),
    /// refusing one whose fingerprint is not `expected` (when given).
    /// Total: every malformation maps to a [`StorageError`] named
    /// `name`, never a panic.
    pub fn decode(
        name: &str,
        bytes: &[u8],
        expected: Option<u64>,
    ) -> Result<Checkpoint, StorageError> {
        frame::decode(
            name,
            SNAPSHOT_MAGIC,
            SNAPSHOT_VERSION,
            expected,
            bytes,
            |c, header| {
                let iterations = c.u64()?;
                let next_null = c.u64()?;
                let nulls_injected = c.u64()?;
                let recodings = c.u64()?;
                let initial_risky = c.u64()?;
                let warm = WarmCycleProfile {
                    warm_evals: c.u64()?,
                    cold_evals: c.u64()?,
                    patched_facts: c.u64()?,
                    strata_skipped: c.u64()?,
                    fallback_to_cold: c.u64()?,
                    reused_index_bytes: c.u64()?,
                    // run-local storage counters are not part of the
                    // snapshot format: they describe this process, not
                    // the journal
                    ..WarmCycleProfile::default()
                };
                let mut exhausted = BTreeSet::new();
                for _ in 0..c.count()? {
                    exhausted.insert(c.u64()? as usize);
                }
                let name = c.string()?;
                let mut attrs = Vec::new();
                for _ in 0..c.count()? {
                    attrs.push(c.string()?);
                }
                // a duplicate attribute in a checksummed payload means the
                // file was written by something else entirely
                let mut db = MicrodataDb::new(name, attrs)
                    .map_err(|_| DecodeError::Invalid("duplicate attribute"))?;
                let n_rows = c.count()?;
                let width = db.attributes().len();
                let mut columns: Vec<Vec<Value>> = Vec::with_capacity(width);
                for _ in 0..width {
                    let mut dict = Vec::new();
                    for _ in 0..c.count()? {
                        dict.push(c.value()?);
                    }
                    let mut col = Vec::with_capacity(n_rows);
                    for _ in 0..n_rows {
                        let code = c.u32()? as usize;
                        let v = dict
                            .get(code)
                            .ok_or(DecodeError::Invalid("code outside its column dictionary"))?;
                        col.push(v.clone());
                    }
                    columns.push(col);
                }
                for r in 0..n_rows {
                    let row: Vec<Value> = columns.iter().map(|col| col[r].clone()).collect();
                    db.push_row(row)
                        .map_err(|_| DecodeError::Invalid("row does not fit the schema"))?;
                }
                db.reserve_nulls(next_null);
                Ok(Checkpoint {
                    iterations,
                    fingerprint: header.fingerprint,
                    db,
                    next_null,
                    exhausted,
                    nulls_injected,
                    recodings,
                    initial_risky,
                    warm,
                })
            },
        )
    }

    /// File name a snapshot at this iteration boundary is stored under.
    pub fn file_name(iterations: u64) -> String {
        format!("snapshot-{iterations}.vsnap")
    }

    /// Write the snapshot atomically into `dir` through `io`. Returns the
    /// file name and the encoded size in bytes.
    pub fn write(&self, io: &dyn DurableIo, dir: &Path) -> io::Result<(String, u64)> {
        let name = Self::file_name(self.iterations);
        let bytes = self.encode();
        write_atomic(io, FileKind::Snapshot, dir, &name, &bytes)?;
        Ok((name, bytes.len() as u64))
    }

    /// Load and validate a snapshot file of any run.
    pub fn read(path: &Path) -> Result<Checkpoint, StorageError> {
        Self::read_with(&FileIo, path, None)
    }

    /// Load a snapshot through `io`, refusing one whose fingerprint is
    /// not `expected` (when given) — what recovery uses.
    pub fn read_with(
        io: &dyn DurableIo,
        path: &Path,
        expected: Option<u64>,
    ) -> Result<Checkpoint, StorageError> {
        let name = path.display().to_string();
        let bytes = io
            .read(path, FileKind::Snapshot)
            .map_err(|e| StorageError::io(format!("read snapshot {name}"), e))?;
        Checkpoint::decode(&name, &bytes, expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut db = MicrodataDb::new("t", ["Id", "Area", "Rev"]).unwrap();
        db.push_row(vec![Value::Int(1), Value::str("North"), Value::Float(2.5)])
            .unwrap();
        db.push_row(vec![Value::Int(2), Value::Null(0), Value::Float(-1.0)])
            .unwrap();
        let _ = db.fresh_null();
        Checkpoint {
            iterations: 7,
            fingerprint: 0xABCD,
            next_null: db.nulls_minted(),
            db,
            exhausted: [1usize, 3].into_iter().collect(),
            nulls_injected: 4,
            recodings: 1,
            initial_risky: 9,
            warm: WarmCycleProfile {
                warm_evals: 6,
                cold_evals: 1,
                patched_facts: 12,
                strata_skipped: 0,
                fallback_to_cold: 0,
                reused_index_bytes: 4096,
                ..WarmCycleProfile::default()
            },
        }
    }

    #[test]
    fn checkpoint_roundtrips() {
        let cp = sample();
        let back = Checkpoint::decode("t", &cp.encode(), Some(cp.fingerprint)).unwrap();
        assert_eq!(back.iterations, cp.iterations);
        assert_eq!(back.fingerprint, cp.fingerprint);
        assert_eq!(back.exhausted, cp.exhausted);
        assert_eq!(back.warm, cp.warm);
        assert_eq!(back.db.name, cp.db.name);
        assert_eq!(back.db.attributes(), cp.db.attributes());
        assert_eq!(back.db.len(), cp.db.len());
        for i in 0..cp.db.len() {
            assert_eq!(back.db.row(i).unwrap(), cp.db.row(i).unwrap());
        }
        // the null counter survives so the next minted null is identical
        assert_eq!(back.db.nulls_minted(), cp.next_null);
    }

    #[test]
    fn foreign_fingerprints_are_refused_by_the_decoder() {
        let bytes = sample().encode();
        assert!(matches!(
            Checkpoint::decode("t", &bytes, Some(0xABCE)),
            Err(StorageError::Fingerprint {
                expected: 0xABCE,
                found: 0xABCD,
                ..
            })
        ));
        assert!(Checkpoint::decode("t", &bytes, None).is_ok());
    }

    #[test]
    fn older_snapshot_magics_are_refused() {
        let mut v1 = sample().encode();
        v1[..8].copy_from_slice(b"VADASAS1");
        // a real version-2 snapshot, written before snapshots moved onto
        // the shared header
        let v2 = include_bytes!("../../../tests/golden/durable/snapshot-1.v2.vsnap");
        assert_eq!(&v2[..8], b"VADASAS2");
        for bytes in [&v1[..], &v2[..]] {
            assert!(matches!(
                Checkpoint::decode("t", bytes, None),
                Err(StorageError::BadMagic { .. })
            ));
        }
    }

    #[test]
    fn out_of_dictionary_codes_are_corrupt() {
        // hand-craft a payload whose single column declares a one-entry
        // dictionary but references code 5
        let mut p = Vec::new();
        for _ in 0..11 {
            put_u64(&mut p, 0); // five counters + six warm-profile fields
        }
        put_u32(&mut p, 0); // exhausted: empty
        put_str(&mut p, "t");
        put_u32(&mut p, 1); // one attribute
        put_str(&mut p, "a");
        put_u32(&mut p, 1); // one row
        put_u32(&mut p, 1); // dictionary of one value
        put_value(&mut p, &Value::Int(7));
        put_u32(&mut p, 5); // code out of range
        let out = frame::encode(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, 0, &p);
        assert!(matches!(
            Checkpoint::decode("t", &out, None),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn dictionary_encoding_shrinks_repeated_tables() {
        let mut db = MicrodataDb::new("rep", ["Area"]).unwrap();
        for _ in 0..500 {
            db.push_row(vec![Value::str("North-West-Region")]).unwrap();
        }
        let cp = Checkpoint {
            iterations: 0,
            fingerprint: 0,
            next_null: 0,
            db,
            exhausted: BTreeSet::new(),
            nulls_injected: 0,
            recodings: 0,
            initial_risky: 0,
            warm: WarmCycleProfile::default(),
        };
        // row-major would pay ~23 bytes per row for the string; the
        // dictionary pays it once plus 4 bytes of code per row
        assert!(cp.encode().len() < 500 * 8);
        let back = Checkpoint::decode("t", &cp.encode(), None).unwrap();
        assert_eq!(back.db.len(), 500);
        assert_eq!(
            *back.db.value(499, "Area").unwrap(),
            Value::str("North-West-Region")
        );
    }

    #[test]
    fn atomic_write_then_read() {
        let dir = std::env::temp_dir().join(format!("vadasa-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cp = sample();
        let (name, bytes) = cp.write(&FileIo, &dir).unwrap();
        assert_eq!(name, "snapshot-7.vsnap");
        assert!(bytes > 0);
        assert!(!dir.join("snapshot-7.vsnap.tmp").exists());
        let back = Checkpoint::read(&dir.join(&name)).unwrap();
        assert_eq!(back.iterations, 7);
        std::fs::remove_dir_all(&dir).ok();
    }
}
