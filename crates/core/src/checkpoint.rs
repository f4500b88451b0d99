//! Atomic snapshots of the anonymization cycle's working state.
//!
//! A checkpoint freezes everything the cycle needs to restart from an
//! iteration boundary: the cells where the working table differs from the
//! run's input, the labelled-null counter, the exhausted-tuple set, the
//! running counters and the [`WarmCycleProfile`]. The input itself is not
//! stored: the run fingerprint in the header pins it, and recovery holds
//! it already, so [`Checkpoint::apply`] rebuilds the working table by
//! writing the changed cells onto a copy of the input. A snapshot file is
//! one [`vadalog::frame`] header (magic [`SNAPSHOT_MAGIC`],
//! [`SNAPSHOT_VERSION`], the run fingerprint) and one CRC frame, written
//! with [`write_atomic`] — so a crash mid-write leaves either the previous
//! snapshot or nothing under the final name. A corrupt, foreign or
//! unreadable snapshot, or one whose cells do not fit the input, is
//! refused with a [`StorageError`], and recovery falls back to an older
//! snapshot or to full replay from the original table.

use crate::cycle::WarmCycleProfile;
use crate::model::MicrodataDb;
use std::collections::BTreeSet;
use std::io;
use std::path::Path;
use vadalog::backend::{write_atomic, DurableIo, FileIo, FileKind, StorageError};
use vadalog::frame::wire::{put_u32, put_u64, put_value};
use vadalog::frame::{self, DecodeError};
use vadalog::Value;

/// File magic identifying a Vada-SA cycle snapshot on the shared header.
///
/// The payload stores the working table as a **delta against the run's
/// input**: one `(row, column, value)` triple per changed cell, in
/// ascending order, so a snapshot's size scales with the cells the cycle
/// rewrote, not with the table. Snapshots of earlier layouts (`VADASAS1`,
/// `VADASAS2`, and `VADASAS3`, which held the whole table) fail with
/// [`StorageError::BadMagic`] and recovery falls back to journal replay,
/// which is always available.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"VADASAS4";

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
    /// The cells where the working table differs from the run's input,
    /// as `(row, column, value)`, strictly ascending by `(row, column)`
    /// (see [`changes`](Self::changes)).
    pub cells: Vec<(u32, u32, Value)>,
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

/// Is `b` the very cell `a` is, bit for bit? `Value`'s `==` equates
/// `Int(2)` with `Float(2.0)`; a restore must not.
fn identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Set(x), Value::Set(y)) => {
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(a, b)| identical(a, b))
        }
        (Value::Tuple(x), Value::Tuple(y)) => {
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(a, b)| identical(a, b))
        }
        (Value::Int(_) | Value::Float(_) | Value::Set(_) | Value::Tuple(_), _) => false,
        _ => a == b,
    }
}

impl Checkpoint {
    /// The cells where `work` differs from `input`, the table the run
    /// started from, as `(row, column, value)` in ascending order. One
    /// identity pass over every column of the rows `work` no longer
    /// shares with `input` ([`MicrodataDb::unshared_rows`]), so it holds
    /// for any anonymizer, and a working table cloned from its input
    /// reads only the blocks the run wrote. The cycle only rewrites
    /// cells, so both tables share a schema and a row count.
    pub fn changes(input: &MicrodataDb, work: &MicrodataDb) -> Vec<(u32, u32, Value)> {
        let mut cells = Vec::new();
        for r in work.unshared_rows(input).flatten() {
            let (Ok(before), Ok(after)) = (input.row(r), work.row(r)) else {
                break;
            };
            for (c, (x, y)) in before.iter().zip(after).enumerate() {
                if !identical(x, y) {
                    cells.push((r as u32, c as u32, y.clone()));
                }
            }
        }
        cells
    }

    /// The working table this checkpoint froze: a copy of `original`, the
    /// run's input, with the changed cells written back and the
    /// labelled-null counter restored, so replay mints the labels the
    /// interrupted run would have. The copy shares `original`'s storage
    /// blocks, so only the blocks the cells land in are copied. A cell
    /// outside `original` is [`StorageError::Corrupt`].
    pub fn apply(&self, original: &MicrodataDb) -> Result<MicrodataDb, StorageError> {
        let mut db = original.clone();
        for (r, c, v) in &self.cells {
            db.set_cell(*r as usize, *c as usize, v.clone())
                .map_err(|e| StorageError::Corrupt {
                    artifact: Self::file_name(self.iterations),
                    reason: format!("cell ({r}, {c}) does not fit the input table: {e}"),
                })?;
        }
        db.reserve_nulls(self.next_null);
        Ok(db)
    }

    /// Encode the checkpoint as a complete snapshot file image.
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(128 + 16 * self.cells.len());
        put_u64(&mut p, self.iterations);
        put_u64(&mut p, self.next_null);
        put_u64(&mut p, self.nulls_injected);
        put_u64(&mut p, self.recodings);
        put_u64(&mut p, self.initial_risky);
        let w = &self.warm;
        // the fourth slot held a skipped-strata count that the cycle
        // never set: it stays, as 0, so `VADASAS4` keeps its layout
        for c in [
            w.warm_evals,
            w.cold_evals,
            w.patched_facts,
            0,
            w.fallback_to_cold,
            w.reused_index_bytes,
        ] {
            put_u64(&mut p, c);
        }
        put_u32(&mut p, self.exhausted.len() as u32);
        for row in &self.exhausted {
            put_u64(&mut p, *row as u64);
        }
        put_u32(&mut p, self.cells.len() as u32);
        for (r, c, v) in &self.cells {
            put_u32(&mut p, *r);
            put_u32(&mut p, *c);
            put_value(&mut p, v);
        }
        frame::encode(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, self.fingerprint, &p)
    }

    /// Decode a snapshot file image produced by [`encode`](Self::encode),
    /// refusing one whose fingerprint is not `expected` (when given).
    /// Total: every malformation — cells out of ascending order included —
    /// maps to a [`StorageError`] named `name`, never a panic.
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
                let (warm_evals, cold_evals, patched_facts) = (c.u64()?, c.u64()?, c.u64()?);
                // the retired skipped-strata slot (see `encode`)
                c.u64()?;
                let warm = WarmCycleProfile {
                    warm_evals,
                    cold_evals,
                    patched_facts,
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
                let n = c.count()?;
                let mut cells: Vec<(u32, u32, Value)> = Vec::with_capacity(n);
                for _ in 0..n {
                    let (r, col) = (c.u32()?, c.u32()?);
                    if cells
                        .last()
                        .is_some_and(|(pr, pc, _)| (*pr, *pc) >= (r, col))
                    {
                        return Err(DecodeError::Invalid("cells not in ascending order"));
                    }
                    cells.push((r, col, c.value()?));
                }
                Ok(Checkpoint {
                    iterations,
                    fingerprint: header.fingerprint,
                    cells,
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
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// An input table, the same table mid-run (one suppression over an
    /// input that already holds a labelled null) and its checkpoint.
    fn sample() -> (MicrodataDb, MicrodataDb, Checkpoint) {
        let mut input = MicrodataDb::new("t", ["Id", "Area", "Rev"]).unwrap();
        input
            .push_row(vec![Value::Int(1), Value::str("North"), Value::Float(2.5)])
            .unwrap();
        input
            .push_row(vec![Value::Int(2), Value::Null(0), Value::Float(-1.0)])
            .unwrap();
        let mut work = input.clone();
        let null = work.fresh_null();
        work.set_value(0, "Area", null).unwrap();
        let cp = Checkpoint {
            iterations: 7,
            fingerprint: 0xABCD,
            cells: Checkpoint::changes(&input, &work),
            next_null: work.nulls_minted(),
            exhausted: [1usize, 3].into_iter().collect(),
            nulls_injected: 4,
            recodings: 1,
            initial_risky: 9,
            warm: WarmCycleProfile {
                warm_evals: 6,
                cold_evals: 1,
                patched_facts: 12,
                fallback_to_cold: 0,
                reused_index_bytes: 4096,
                ..WarmCycleProfile::default()
            },
        };
        (input, work, cp)
    }

    /// Every cell of `db`, in wire encoding: equal images mean
    /// bit-identical tables.
    fn image(db: &MicrodataDb) -> Vec<u8> {
        let mut out = Vec::new();
        for row in db.iter_rows() {
            for v in row {
                put_value(&mut out, v);
            }
        }
        out
    }

    #[test]
    fn checkpoint_roundtrips() {
        let (input, work, cp) = sample();
        assert_eq!(cp.cells, vec![(0, 1, Value::Null(1))]);
        let back = Checkpoint::decode("t", &cp.encode(), Some(cp.fingerprint)).unwrap();
        assert_eq!(back.iterations, cp.iterations);
        assert_eq!(back.fingerprint, cp.fingerprint);
        assert_eq!(back.cells, cp.cells);
        assert_eq!(back.exhausted, cp.exhausted);
        assert_eq!(back.warm, cp.warm);
        let restored = back.apply(&input).unwrap();
        assert_eq!(image(&restored), image(&work));
        // the null counter survives so the next minted null is identical
        assert_eq!(restored.nulls_minted(), work.nulls_minted());
    }

    #[test]
    fn foreign_fingerprints_are_refused_by_the_decoder() {
        let bytes = sample().2.encode();
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
        let mut v1 = sample().2.encode();
        v1[..8].copy_from_slice(b"VADASAS1");
        // a real version-2 snapshot, written before snapshots moved onto
        // the shared header, and a real version-3 one, which held the
        // whole table column-wise
        let v2 = include_bytes!("../../../tests/golden/durable/snapshot-1.v2.vsnap");
        assert_eq!(&v2[..8], b"VADASAS2");
        let v3 = include_bytes!("../../../tests/golden/durable/snapshot-1.v3.vsnap");
        assert_eq!(&v3[..8], b"VADASAS3");
        for bytes in [&v1[..], &v2[..], &v3[..]] {
            assert!(matches!(
                Checkpoint::decode("t", bytes, None),
                Err(StorageError::BadMagic { .. })
            ));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random tables that already hold labelled nulls, under random
        /// suppression and recoding sequences: `changes` → `encode` →
        /// `decode` → `apply` reproduces every cell bit for bit (a recode
        /// of `Int(k)` to `Float(k)` included) and the null counter,
        /// whether the working table is a clone that shares its unwritten
        /// storage blocks with the input or a copy built apart that
        /// shares none.
        #[test]
        fn deltas_reproduce_every_cell_and_the_null_counter(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let width = rng.gen_range(1usize..=5);
            let rows = rng.gen_range(1usize..=200);
            let mut input = MicrodataDb::new("p", (0..width).map(|c| format!("a{c}"))).unwrap();
            for _ in 0..rows {
                let row = (0..width)
                    .map(|_| match rng.gen_range(0u32..6) {
                        0 => Value::Null(rng.gen_range(0u64..8)),
                        1 => Value::Float(rng.gen_range(0i64..3) as f64),
                        2 | 3 => Value::Int(rng.gen_range(0i64..3)),
                        _ => Value::str(["N", "S", "E"][rng.gen_range(0usize..3)]),
                    })
                    .collect();
                input.push_row(row).unwrap();
            }
            let mut work = if rng.gen_bool(0.5) {
                input.clone()
            } else {
                let mut apart = MicrodataDb::new("p", input.attributes().to_vec()).unwrap();
                for row in input.iter_rows() {
                    apart.push_row(row.to_vec()).unwrap();
                }
                apart
            };
            for _ in 0..rng.gen_range(0usize..12) {
                let (r, c) = (rng.gen_range(0..rows), rng.gen_range(0..width));
                if rng.gen_bool(0.5) {
                    let null = work.fresh_null();
                    work.set_cell(r, c, null).unwrap();
                } else {
                    // recode every cell of the column equal to a present value
                    let from = work.row(r).unwrap()[c].clone();
                    let to = match &from {
                        Value::Int(k) => Value::Float(*k as f64),
                        _ => Value::str("*"),
                    };
                    for row in 0..rows {
                        if work.row(row).unwrap()[c] == from {
                            work.set_cell(row, c, to.clone()).unwrap();
                        }
                    }
                }
            }
            let cp = Checkpoint {
                iterations: 3,
                fingerprint: seed,
                cells: Checkpoint::changes(&input, &work),
                next_null: work.nulls_minted(),
                exhausted: BTreeSet::new(),
                nulls_injected: 0,
                recodings: 0,
                initial_risky: 0,
                warm: WarmCycleProfile::default(),
            };
            let back = Checkpoint::decode("p", &cp.encode(), Some(seed)).unwrap();
            let restored = back.apply(&input).unwrap();
            prop_assert!(image(&restored) == image(&work), "a restored cell differs");
            prop_assert_eq!(restored.nulls_minted(), work.nulls_minted());
        }
    }

    #[test]
    fn atomic_write_then_read() {
        let dir = std::env::temp_dir().join(format!("vadasa-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cp = sample().2;
        let (name, bytes) = cp.write(&FileIo, &dir).unwrap();
        assert_eq!(name, "snapshot-7.vsnap");
        assert!(bytes > 0);
        assert!(!dir.join("snapshot-7.vsnap.tmp").exists());
        let back = Checkpoint::read(&dir.join(&name)).unwrap();
        assert_eq!(back.iterations, 7);
        std::fs::remove_dir_all(&dir).ok();
    }
}
