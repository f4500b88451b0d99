//! Independent output checks. Nothing here trusts the program's own
//! verdict: a released table is compared cell by cell with its input and
//! re-scored on a fresh `MicrodataView` with the job's measure, and the
//! information loss is counted from that comparison rather than read from
//! the program's outcome.

use std::collections::HashMap;
use vadalog::Value;
use vadasa_core::dictionary::MetadataDictionary;
use vadasa_core::maybe_match::NullSemantics;
use vadasa_core::model::MicrodataDb;
use vadasa_core::risk::{MicrodataView, RiskMeasure};

/// A released table, stored as the cells that differ from its input (an
/// op's output is kept this small so that every op of a run can be
/// checked after the timed phase).
#[derive(Debug, Clone, PartialEq)]
pub struct Release {
    cells: Vec<(usize, usize, Value)>,
}

impl Release {
    /// The cells of `output` that differ from `input`.
    pub fn diff(input: &MicrodataDb, output: &MicrodataDb) -> Result<Release, String> {
        if input.len() != output.len() || input.attributes() != output.attributes() {
            return Err(format!(
                "released table has {} rows × {:?}, input {} rows × {:?}",
                output.len(),
                output.attributes(),
                input.len(),
                input.attributes()
            ));
        }
        let mut cells = Vec::new();
        for (r, (a, b)) in input.iter_rows().zip(output.iter_rows()).enumerate() {
            for (c, (x, y)) in a.iter().zip(b).enumerate() {
                if x != y {
                    cells.push((r, c, y.clone()));
                }
            }
        }
        Ok(Release { cells })
    }

    /// Rebuild the released table from its input.
    pub fn apply(&self, input: &MicrodataDb) -> MicrodataDb {
        let mut out = input.clone();
        for (r, c, v) in &self.cells {
            let attr = input.attributes()[*c].clone();
            out.set_value(*r, &attr, v.clone())
                .expect("diffed against this input");
        }
        out
    }

    /// Identity of the release, for checking each distinct one once.
    pub fn key(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.cells.hash(&mut h);
        h.finish()
    }
}

/// What a passing release check measured.
#[derive(Debug, Clone, Copy)]
pub struct Verdict {
    /// Quasi-identifier cells suppressed (input constant → labelled null).
    pub suppressed: usize,
    /// Quasi-identifier cells in the table.
    pub qi_cells: usize,
}

/// Check a released table against its input under the paper's
/// definitions: every changed cell is a quasi-identifier turned into a
/// labelled null, and every row's risk under `measure`, re-scored from
/// scratch, is at most `threshold`.
pub fn check_release(
    input: &MicrodataDb,
    dict: &MetadataDictionary,
    released: &MicrodataDb,
    measure: &dyn RiskMeasure,
    threshold: f64,
    semantics: NullSemantics,
) -> Result<Verdict, String> {
    let qis = dict
        .quasi_identifiers(&input.name)
        .map_err(|e| e.to_string())?;
    let is_qi: Vec<bool> = input.attributes().iter().map(|a| qis.contains(a)).collect();
    let diff = Release::diff(input, released)?;
    let mut suppressed = 0;
    for (r, c, v) in &diff.cells {
        let attr = &input.attributes()[*c];
        if !is_qi[*c] || !v.is_null() {
            return Err(format!(
                "row {r} attribute {attr} changed to {v:?}: only quasi-identifiers may change, and only to a labelled null"
            ));
        }
        if !input.value(*r, attr).map_err(|e| e.to_string())?.is_null() {
            suppressed += 1;
        }
    }
    let view = MicrodataView::from_db_with(released, dict, semantics, None)
        .map_err(|e| format!("re-scoring view: {e}"))?;
    let report = measure
        .evaluate(&view)
        .map_err(|e| format!("re-scoring: {e}"))?;
    if let Some((row, risk)) = report
        .risks
        .iter()
        .enumerate()
        .find(|(_, &r)| r > threshold)
    {
        return Err(format!(
            "row {row} has {} risk {risk} > T = {threshold} in the released table",
            measure.name()
        ));
    }
    Ok(Verdict {
        suppressed,
        qi_cells: input.len() * qis.len(),
    })
}

/// Counts over every op of a run: attempted, failed, and the information
/// loss of the outputs that passed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub suppressed: u64,
    pub qi_cells: u64,
}

impl Tally {
    /// Keep the first few failure messages; count them all.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(message);
        }
    }

    pub fn pass(&mut self, v: Verdict) {
        self.suppressed += v.suppressed as u64;
        self.qi_cells += v.qi_cells as u64;
    }

    /// Suppressed quasi-identifier cells over all released ones.
    pub fn info_loss(&self) -> f64 {
        self.suppressed as f64 / self.qi_cells as f64
    }
}

/// Check every op's release, each distinct release once: `verify` runs on
/// the first op of each distinct output and its verdict stands for every
/// op that produced the same cells. Returns whether each op passed.
pub fn check_all<F>(
    releases: &[Result<Release, String>],
    tally: &mut Tally,
    mut verify: F,
) -> Vec<bool>
where
    F: FnMut(&Release) -> Result<Verdict, String>,
{
    let mut seen: HashMap<u64, Result<Verdict, String>> = HashMap::new();
    let mut passed = Vec::with_capacity(releases.len());
    for (i, rel) in releases.iter().enumerate() {
        tally.attempted += 1;
        let verdict = match rel {
            Ok(rel) => seen.entry(rel.key()).or_insert_with(|| verify(rel)).clone(),
            Err(e) => Err(e.clone()),
        };
        passed.push(verdict.is_ok());
        match verdict {
            Ok(v) => tally.pass(v),
            Err(e) => tally.fail(format!("op {i}: {e}")),
        }
    }
    passed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::survey;
    use vadasa_core::prelude::*;
    use vadasa_datagen::generator::Regime;

    #[test]
    fn a_flipped_released_cell_is_caught() {
        let t = survey(1_000, Regime::U, 3);
        let risk = KAnonymity::new(2);
        let anonymizer = LocalSuppression::default();
        let out = AnonymizationCycle::new(&risk, &anonymizer, CycleConfig::default())
            .run(&t.db, &t.dict)
            .expect("cycle runs");
        let sem = NullSemantics::MaybeMatch;
        let verdict = check_release(&t.db, &t.dict, &out.db, &risk, 0.5, sem)
            .expect("the program's own release passes");
        assert!(verdict.suppressed > 0);

        // a quasi-identifier rewritten to another constant
        let qi = t.dict.quasi_identifiers(&t.db.name).unwrap()[0].clone();
        let mut flipped = out.db.clone();
        let other = t.db.value(1, &qi).unwrap().clone();
        let row = (0..t.db.len())
            .find(|&r| t.db.value(r, &qi).unwrap() != &other)
            .unwrap();
        flipped.set_value(row, &qi, other).unwrap();
        let err = check_release(&t.db, &t.dict, &flipped, &risk, 0.5, sem).unwrap_err();
        assert!(err.contains("labelled null"), "{err}");

        // the compact form rebuilds the released table byte for byte
        let rel = Release::diff(&t.db, &out.db).unwrap();
        assert_eq!(
            vadasa_core::io::write_csv(&rel.apply(&t.db)),
            vadasa_core::io::write_csv(&out.db)
        );
    }
}
