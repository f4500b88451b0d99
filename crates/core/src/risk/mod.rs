//! Statistical disclosure risk estimation (paper §4.2).
//!
//! All measures implement [`RiskMeasure`] over a [`MicrodataView`] — the
//! projection of a microdata DB onto its quasi-identifiers plus the
//! sampling weights, with a chosen null semantics. The `risk` atom of the
//! anonymization cycle (Algorithm 2) is *polymorphic*; the cycle accepts
//! any `dyn RiskMeasure`, mirroring Vada-SA's plug-in mechanism.
//!
//! Off-the-shelf measures, as in the paper:
//!
//! - [`ReIdentification`] — Algorithm 3: `ρ = 1 / Σ weights of the group`;
//! - [`KAnonymity`] — Algorithm 4: `1` iff the equivalence class is
//!   smaller than `k`;
//! - [`IndividualRisk`] — Algorithm 5: Benedetti–Franconi style posterior
//!   estimation of `1/F_k` from sample frequency and weight sum;
//! - [`Suda`] — Algorithm 6: minimal sample uniques.
//!
//! Since the million-row rework the view stores its quasi-identifier
//! cells *columnarly* (per-column [`ColumnDict`]s, flat `u32` codes and a
//! per-row null bitmask — see [`crate::columnar`]) instead of
//! `Vec<Vec<Value>>`, and indexes its distinct coded rows
//! ([`PatternIndex`]), so group formation works per distinct pattern and
//! never clones a `Value`.

mod individual;
mod kanon;
mod presence;
mod reident;
mod suda;

pub use individual::{bf_posterior_mean, IndividualRisk, IrEstimator};
pub use kanon::KAnonymity;
pub use presence::PresenceRisk;
pub use reident::ReIdentification;
pub use suda::{minimal_sample_uniques, MsuSet, Suda};

use crate::columnar::{
    apply_cell_change_codes, codes_match, group_stats_codes, ColumnDict, IdentityMemo, PatternIndex,
};
use crate::dictionary::{Category, DictionaryError, MetadataDictionary};
use crate::maybe_match::{GroupStats, NullSemantics};
use crate::model::{MicrodataDb, ModelError};
use std::fmt;
use vadalog::Value;

/// Errors building a view or evaluating risk.
#[derive(Debug)]
pub enum RiskError {
    /// Dictionary lookup failed.
    Dictionary(DictionaryError),
    /// Microdata access failed.
    Model(ModelError),
    /// The view is unusable for this measure (e.g. missing weights).
    View(String),
}

impl fmt::Display for RiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RiskError::Dictionary(e) => write!(f, "{e}"),
            RiskError::Model(e) => write!(f, "{e}"),
            RiskError::View(m) => write!(f, "invalid view: {m}"),
        }
    }
}

impl std::error::Error for RiskError {}

impl From<DictionaryError> for RiskError {
    fn from(e: DictionaryError) -> Self {
        RiskError::Dictionary(e)
    }
}
impl From<ModelError> for RiskError {
    fn from(e: ModelError) -> Self {
        RiskError::Model(e)
    }
}

/// The projection of a microdata DB a risk measure works on:
/// dictionary-encoded QI columns, optional sampling weights and the null
/// semantics for group formation.
///
/// Storage is columnar: `dicts[c]` interns every distinct `Value` of
/// column `c`, `codes` holds the row-major `u32` codes (stride =
/// [`width`](Self::width)), and `null_masks[r]` has bit `c` set when row
/// `r` is a labelled null in column `c`, so a view has at most 64
/// columns. `patterns` gives every distinct coded row a dense id and is
/// kept in step by [`patch_cell`](Self::patch_cell). Cells are reached
/// through [`value`](Self::value) / [`patch_cell`](Self::patch_cell); the
/// row-major `Vec<Vec<Value>>` of earlier versions is gone from the hot
/// path (use [`to_rows`](Self::to_rows) where owned rows are genuinely
/// needed).
#[derive(Debug, Clone)]
pub struct MicrodataView {
    /// Names of the projected quasi-identifier attributes.
    pub qi_names: Vec<String>,
    /// Per-column value dictionaries (code → `Value`).
    dicts: Vec<ColumnDict>,
    /// Row-major cell codes, `len = rows × width`.
    codes: Vec<u32>,
    /// Per-row bitmask of null columns.
    null_masks: Vec<u64>,
    /// The distinct coded rows and each row's pattern id.
    patterns: PatternIndex,
    /// Sampling weights, if a weight column is categorized.
    pub weights: Option<Vec<f64>>,
    /// Null semantics used to form equivalence groups.
    pub semantics: NullSemantics,
}

impl MicrodataView {
    /// Build the view of `db` according to the dictionary's categories:
    /// quasi-identifiers are projected, the weight column (if any) is read
    /// numerically, identifiers and non-identifying attributes are dropped
    /// (Algorithm 2, Rule 1).
    pub fn from_db(db: &MicrodataDb, dict: &MetadataDictionary) -> Result<Self, RiskError> {
        Self::from_db_with(db, dict, NullSemantics::MaybeMatch, None)
    }

    /// Like [`MicrodataView::from_db`], choosing the semantics and
    /// optionally restricting to a subset `q̂ ⊆ q` of quasi-identifiers
    /// (the paper's `AnonSet`).
    pub fn from_db_with(
        db: &MicrodataDb,
        dict: &MetadataDictionary,
        semantics: NullSemantics,
        restrict_to: Option<&[String]>,
    ) -> Result<Self, RiskError> {
        let mut qi_names = dict.quasi_identifiers(&db.name)?;
        if let Some(subset) = restrict_to {
            qi_names.retain(|q| subset.contains(q));
            if qi_names.is_empty() {
                return Err(RiskError::View(
                    "the restriction removed every quasi-identifier".into(),
                ));
            }
        }
        if qi_names.is_empty() {
            return Err(RiskError::View(format!(
                "microdata DB '{}' has no categorized quasi-identifiers",
                db.name
            )));
        }
        let cols: Vec<usize> = qi_names
            .iter()
            .map(|q| db.attr_position(q))
            .collect::<Result<_, _>>()?;
        let weights = match dict
            .attrs_with_category(&db.name, Category::Weight)?
            .first()
        {
            Some(w) => Some(db.numeric_column(w)?),
            None => None,
        };
        Self::assemble(qi_names, weights, semantics, |width| {
            Ok(encode_rows(
                width,
                db.len(),
                db.iter_rows().map(|r| cols.iter().map(move |&c| &r[c])),
            ))
        })
    }

    /// Build a view directly from owned rows (row-major, one `Value` per
    /// quasi-identifier). Every row must have `qi_names.len()` cells, and
    /// there may be at most 64 quasi-identifiers.
    pub fn from_rows(
        qi_names: Vec<String>,
        rows: Vec<Vec<Value>>,
        weights: Option<Vec<f64>>,
        semantics: NullSemantics,
    ) -> Result<Self, RiskError> {
        Self::assemble(qi_names, weights, semantics, |width| {
            if let Some(r) = rows.iter().position(|r| r.len() != width) {
                return Err(RiskError::View(format!(
                    "row {r} has {} cells for {width} quasi-identifiers",
                    rows[r].len()
                )));
            }
            Ok(encode_rows(
                width,
                rows.len(),
                rows.iter().map(|r| r.iter()),
            ))
        })
    }

    /// The one constructor: refuse more columns than the null bitmask
    /// holds, let `encode` produce the coded columns, refuse more rows
    /// than `u32` ids reach, and index their distinct patterns.
    fn assemble(
        qi_names: Vec<String>,
        weights: Option<Vec<f64>>,
        semantics: NullSemantics,
        encode: impl FnOnce(usize) -> Result<Encoded, RiskError>,
    ) -> Result<Self, RiskError> {
        let width = qi_names.len();
        if width > 64 {
            return Err(RiskError::View(format!(
                "{width} quasi-identifiers exceed the 64-column null-bitmask limit"
            )));
        }
        let (dicts, codes, null_masks) = encode(width)?;
        if u32::try_from(null_masks.len()).is_err() {
            return Err(RiskError::View(format!(
                "{} rows exceed the pattern index's u32 row ids",
                null_masks.len()
            )));
        }
        let patterns = PatternIndex::build(&codes, &null_masks, width);
        Ok(MicrodataView {
            qi_names,
            dicts,
            codes,
            null_masks,
            patterns,
            weights,
            semantics,
        })
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.null_masks.len()
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.null_masks.is_empty()
    }

    /// Number of quasi-identifier columns.
    pub fn width(&self) -> usize {
        self.qi_names.len()
    }

    /// Borrow the cell value at `(row, col)`.
    pub fn value(&self, row: usize, col: usize) -> &Value {
        self.dicts[col].value(self.codes[row * self.width() + col])
    }

    /// The row's coded cells (stride slice into the flat code array).
    pub fn row_codes(&self, row: usize) -> &[u32] {
        let w = self.width();
        &self.codes[row * w..(row + 1) * w]
    }

    /// The row's null bitmask (bit `c` ⇔ column `c` holds a labelled null).
    pub fn null_mask(&self, row: usize) -> u64 {
        self.null_masks[row]
    }

    /// Owned clone of one row's quasi-identifier cells.
    pub fn row_values(&self, row: usize) -> Vec<Value> {
        (0..self.width())
            .map(|c| self.value(row, c).clone())
            .collect()
    }

    /// Materialize the whole projection as owned rows (compatibility /
    /// test escape hatch — O(cells) clones, avoid on hot paths).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.len()).map(|r| self.row_values(r)).collect()
    }

    /// Do rows `i` and `j` match on every column under the view's
    /// semantics?
    pub fn rows_match(&self, i: usize, j: usize) -> bool {
        self.rows_match_with(i, j, self.semantics)
    }

    /// Like [`rows_match`](Self::rows_match) with explicit semantics.
    pub fn rows_match_with(&self, i: usize, j: usize, sem: NullSemantics) -> bool {
        codes_match(
            self.row_codes(i),
            self.null_masks[i],
            self.row_codes(j),
            self.null_masks[j],
            sem,
        )
    }

    /// Equivalence-group statistics under the view's own weights and
    /// semantics.
    pub fn group_stats(&self) -> GroupStats {
        let mut stats = GroupStats::default();
        self.group_stats_into(&mut stats);
        stats
    }

    /// [`group_stats`](Self::group_stats) written into `stats`, whatever
    /// it held before: a caller that regroups again and again keeps one
    /// pair of per-row buffers instead of allocating them each time.
    pub fn group_stats_into(&self, stats: &mut GroupStats) {
        let all: Vec<usize> = (0..self.width()).collect();
        self.fill_group_stats(&all, self.weights.as_deref(), self.semantics, stats);
    }

    /// The flat row-major code matrix.
    pub(crate) fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Per-row null bitmasks.
    pub(crate) fn null_masks(&self) -> &[u64] {
        &self.null_masks
    }

    /// The pattern id of `row`: rows share an id exactly when they hold
    /// the same codes. Ids depend on the patch history and must not
    /// reach an output.
    pub(crate) fn pattern_of(&self, row: usize) -> u32 {
        self.patterns.pattern_of(row)
    }

    /// The distinct-pattern index (tests).
    #[cfg(test)]
    pub(crate) fn patterns(&self) -> &PatternIndex {
        &self.patterns
    }

    /// Group statistics with explicit weights and semantics.
    pub fn group_stats_with(&self, weights: Option<&[f64]>, sem: NullSemantics) -> GroupStats {
        let all: Vec<usize> = (0..self.width()).collect();
        self.group_stats_on(&all, weights, sem)
    }

    /// Group statistics over a sub-projection: only the listed column
    /// positions participate in matching (SUDA's per-subset scans).
    pub fn group_stats_on(
        &self,
        positions: &[usize],
        weights: Option<&[f64]>,
        sem: NullSemantics,
    ) -> GroupStats {
        let mut stats = GroupStats::default();
        self.fill_group_stats(positions, weights, sem, &mut stats);
        stats
    }

    /// The pattern kernel over this view, into `stats`.
    fn fill_group_stats(
        &self,
        positions: &[usize],
        weights: Option<&[f64]>,
        sem: NullSemantics,
        stats: &mut GroupStats,
    ) {
        group_stats_codes(
            &self.codes,
            &self.null_masks,
            &self.patterns,
            positions,
            weights,
            sem,
            stats,
        );
    }

    /// Overwrite the cell at `(row, col)`, move the row to its new
    /// pattern, and, when `stats` is given, incrementally repair the group
    /// statistics (columnar flip-then-rescan: bit-identical to a regroup
    /// for integer-valued weights, see
    /// [`weights_exactly_summable`](crate::maybe_match::weights_exactly_summable)).
    pub fn patch_cell(
        &mut self,
        row: usize,
        col: usize,
        v: &Value,
        stats: Option<&mut GroupStats>,
    ) {
        let w = self.width();
        let old_mask = self.null_masks[row];
        let code = self.dicts[col].intern(v);
        let mut old_codes = [0u32; 64];
        let old_codes = &mut old_codes[..w];
        old_codes.copy_from_slice(&self.codes[row * w..(row + 1) * w]);
        self.codes[row * w + col] = code;
        if v.is_null() {
            self.null_masks[row] |= 1 << col;
        } else {
            self.null_masks[row] &= !(1 << col);
        }
        self.patterns
            .relocate(&self.codes, &self.null_masks, row, old_codes, old_mask);
        if let Some(stats) = stats {
            apply_cell_change_codes(
                &self.codes,
                &self.null_masks,
                w,
                self.weights.as_deref(),
                self.semantics,
                row,
                old_codes,
                old_mask,
                stats,
            );
        }
    }

    /// Rewrite every cell of column `col` equal to `from` into `to`.
    /// Group statistics are not repaired: a recode rewrites a whole value
    /// class, so callers that maintain statistics regroup once instead.
    /// Returns the indices of the patched rows.
    pub fn patch_recode(&mut self, col: usize, from: &Value, to: &Value) -> Vec<usize> {
        let mut patched = Vec::new();
        let Some(from_code) = self.dicts[col].code(from) else {
            return patched;
        };
        let w = self.width();
        for r in 0..self.len() {
            if self.codes[r * w + col] == from_code {
                self.patch_cell(r, col, to, None);
                patched.push(r);
            }
        }
        patched
    }

    /// Number of null quasi-identifier cells across the view.
    pub fn null_cell_count(&self) -> usize {
        self.null_masks
            .iter()
            .map(|m| m.count_ones() as usize)
            .sum()
    }

    /// Approximate retained heap bytes of the columnar storage and its
    /// pattern index.
    pub fn retained_bytes(&self) -> usize {
        self.patterns.retained_bytes()
            + self.codes.len() * std::mem::size_of::<u32>()
            + self.null_masks.len() * std::mem::size_of::<u64>()
            + self
                .dicts
                .iter()
                .map(ColumnDict::retained_bytes)
                .sum::<usize>()
            + self
                .weights
                .as_ref()
                .map(|w| w.len() * std::mem::size_of::<f64>())
                .unwrap_or(0)
    }
}

/// Coded columns: per-column dictionaries, the row-major code matrix and
/// the per-row null bitmasks.
type Encoded = (Vec<ColumnDict>, Vec<u32>, Vec<u64>);

/// Dictionary-encode `len` rows of exactly `width ≤ 64` cells each. Each
/// column's cells go through an [`IdentityMemo`] that lives for this pass
/// only, so a repeated cell (an interned string, a shared set, a scalar)
/// is hashed by content once per column rather than once per row.
fn encode_rows<'a, R>(width: usize, len: usize, rows: impl Iterator<Item = R>) -> Encoded
where
    R: Iterator<Item = &'a Value>,
{
    let mut dicts: Vec<ColumnDict> = (0..width).map(|_| ColumnDict::new()).collect();
    let mut memos: Vec<IdentityMemo> = (0..width).map(|_| IdentityMemo::for_rows(len)).collect();
    let mut codes: Vec<u32> = Vec::with_capacity(len * width);
    let mut null_masks: Vec<u64> = Vec::with_capacity(len);
    for cells in rows {
        let mut mask = 0u64;
        for (k, v) in cells.enumerate() {
            if v.is_null() {
                mask |= 1 << k;
            }
            codes.push(memos[k].code(&mut dicts[k], v));
        }
        null_masks.push(mask);
    }
    (dicts, codes, null_masks)
}

/// Per-tuple diagnostic detail accompanying a risk score: three plain
/// words, so a report's rows are written and freed without touching a
/// heap object.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TupleRiskDetail {
    /// Size of the tuple's equivalence group under the view's semantics.
    pub frequency: usize,
    /// Sum of sampling weights over the group (frequency if unweighted).
    pub weight_sum: f64,
    /// Index of the tuple's measure-specific annotation (e.g. MSU sizes
    /// for SUDA) in its report's [`RiskReport::notes`]; read the text
    /// with [`RiskReport::note`]. Indices mean nothing outside their
    /// report, so compare notes by text.
    pub note: usize,
}

/// The outcome of evaluating a risk measure over a view.
#[derive(Debug, Clone, Default)]
pub struct RiskReport {
    /// Name of the measure that produced this report.
    pub measure: String,
    /// Per-tuple risk in `[0, 1]`, same order as the view rows.
    pub risks: Vec<f64>,
    /// Per-tuple diagnostics (same order).
    pub details: Vec<TupleRiskDetail>,
    /// The report's note table: rows with the same annotation share one
    /// entry, which their [`TupleRiskDetail::note`] indexes. An index past
    /// the end reads as the empty note, so the rows of a report without
    /// notes point nowhere.
    pub notes: Vec<String>,
}

impl RiskReport {
    /// An empty report of `measure`.
    pub fn new(measure: &str) -> Self {
        RiskReport {
            measure: measure.to_string(),
            ..RiskReport::default()
        }
    }

    /// Empty the report for a new evaluation by `measure`, keeping the
    /// capacity of its row buffers: refilling a report of the same length
    /// allocates nothing per row.
    pub fn reset(&mut self, measure: &str) {
        self.measure.clear();
        self.measure.push_str(measure);
        self.risks.clear();
        self.details.clear();
        self.notes.clear();
    }

    /// Add `text` to the note table and return its index.
    pub fn add_note(&mut self, text: String) -> usize {
        self.notes.push(text);
        self.notes.len() - 1
    }

    /// Append one tuple whose note is its own.
    pub fn push(&mut self, risk: f64, frequency: usize, weight_sum: f64, note: String) {
        let note = self.add_note(note);
        self.risks.push(risk);
        self.details.push(TupleRiskDetail {
            frequency,
            weight_sum,
            note,
        });
    }

    /// The note text of tuple `row` (empty for a row without a note, or
    /// past the report's end).
    pub fn note(&self, row: usize) -> &str {
        self.details
            .get(row)
            .and_then(|d| self.notes.get(d.note))
            .map_or("", String::as_str)
    }

    /// Indices of tuples whose risk strictly exceeds the threshold `t`
    /// (Algorithm 2, Rule 2: `R > T → anonymize`).
    pub fn risky_tuples(&self, t: f64) -> Vec<usize> {
        self.risks
            .iter()
            .enumerate()
            .filter(|(_, &r)| r > t)
            .map(|(i, _)| i)
            .collect()
    }

    /// Maximum risk over all tuples (0.0 for an empty view).
    pub fn max_risk(&self) -> f64 {
        self.risks.iter().copied().fold(0.0, f64::max)
    }

    /// Mean risk (0.0 for an empty view).
    pub fn mean_risk(&self) -> f64 {
        if self.risks.is_empty() {
            0.0
        } else {
            self.risks.iter().sum::<f64>() / self.risks.len() as f64
        }
    }
}

/// A pluggable statistical disclosure risk measure.
pub trait RiskMeasure {
    /// Name used in reports and audit logs.
    fn name(&self) -> &str;
    /// Evaluate per-tuple risk over a view.
    fn evaluate(&self, view: &MicrodataView) -> Result<RiskReport, RiskError>;

    /// Fast single-tuple re-evaluation against a (possibly partially
    /// anonymized) view, used by the cycle to honour the monotonic-
    /// aggregation semantics of §4.3: a tuple whose risk has already been
    /// defused by *someone else's* suppression in the current iteration is
    /// skipped, so no information is removed needlessly. Measures without
    /// a cheap incremental form return `None` and are re-checked only at
    /// the next full evaluation.
    fn evaluate_tuple(&self, _view: &MicrodataView, _row: usize) -> Option<f64> {
        None
    }

    /// Constant-time single-tuple risk from maintained group statistics.
    /// Where [`RiskMeasure::evaluate_tuple`] rescans the table (`O(n)`),
    /// this hook reads the tuple's `(frequency, weight_sum)` straight out
    /// of `stats` — which the cycle keeps patched across suppressions —
    /// so per-row rechecks cost `O(1)`. Implementations must return
    /// exactly the value `evaluate_tuple` would compute on the same view;
    /// the default `None` falls back to the scanning path.
    fn tuple_risk_from_stats(
        &self,
        _view: &MicrodataView,
        _stats: &crate::maybe_match::GroupStats,
        _row: usize,
    ) -> Option<f64> {
        None
    }

    /// Is this measure's report served by
    /// [`report_from_groups`](Self::report_from_groups)? The cycle asks
    /// before it groups the table, so a measure that answers `false` (the
    /// default) costs a run no regroup it would throw away. A measure
    /// that answers `true` may still return `None` from the hook; the
    /// cycle then falls back to cold evaluations as it would have.
    fn serves_from_groups(&self) -> bool {
        false
    }

    /// Warm-start hook: write the full report into `report` from
    /// precomputed equivalence-group statistics instead of regrouping the
    /// whole view. The cycle maintains `stats` incrementally across
    /// suppressions (`MicrodataView::patch_cell`), serves every
    /// re-evaluation after the first through this hook, and passes the
    /// report of an earlier evaluation as `report`, so the hook must
    /// [`reset`](RiskReport::reset) it and leave nothing of its old rows
    /// or notes behind.
    ///
    /// A measure may implement this only when its report is a pure,
    /// deterministic function of per-tuple `(frequency, weight_sum)` — the
    /// default `None` declares the measure unsupported and forces the
    /// cycle back to a cold [`RiskMeasure::evaluate`] (correctness first).
    fn report_from_groups(
        &self,
        _view: &MicrodataView,
        _stats: &crate::maybe_match::GroupStats,
        _report: &mut RiskReport,
    ) -> Option<Result<(), RiskError>> {
        None
    }
}

/// Count the rows of `view` matching `row` on every quasi-identifier under
/// the view's null semantics, and their weight sum. Shared by the
/// incremental fast paths.
pub(crate) fn tuple_group(view: &MicrodataView, row: usize) -> (usize, f64) {
    let mut count = 0usize;
    let mut wsum = 0.0f64;
    for i in 0..view.len() {
        if view.rows_match(row, i) {
            count += 1;
            wsum += view.weights.as_ref().map(|w| w[i]).unwrap_or(1.0);
        }
    }
    (count, wsum)
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// A small helper building a view directly from string rows.
    pub fn view_of(rows: Vec<Vec<&str>>, weights: Option<Vec<f64>>) -> MicrodataView {
        let width = rows.first().map(|r| r.len()).unwrap_or(0);
        MicrodataView::from_rows(
            (0..width).map(|i| format!("q{i}")).collect(),
            rows.into_iter()
                .map(|r| r.into_iter().map(Value::str).collect())
                .collect(),
            weights,
            NullSemantics::MaybeMatch,
        )
        .unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::view_of;
    use super::*;
    use crate::dictionary::Category;
    use std::sync::Arc;

    #[test]
    fn view_from_db_projects_qis_and_weights() {
        let mut db = MicrodataDb::new("m", ["id", "area", "w", "note"]).unwrap();
        db.push_row(vec![
            Value::Int(1),
            Value::str("North"),
            Value::Int(10),
            Value::str("x"),
        ])
        .unwrap();
        let mut dict = MetadataDictionary::new();
        for a in ["id", "area", "w", "note"] {
            dict.register_attr("m", a, "");
        }
        dict.set_category("m", "id", Category::Identifier).unwrap();
        dict.set_category("m", "area", Category::QuasiIdentifier)
            .unwrap();
        dict.set_category("m", "w", Category::Weight).unwrap();
        dict.set_category("m", "note", Category::NonIdentifying)
            .unwrap();

        let view = MicrodataView::from_db(&db, &dict).unwrap();
        assert_eq!(view.qi_names, vec!["area"]);
        assert_eq!(view.value(0, 0), &Value::str("North"));
        assert_eq!(view.row_values(0), vec![Value::str("North")]);
        assert_eq!(view.weights, Some(vec![10.0]));
    }

    #[test]
    fn restriction_to_subset() {
        let mut db = MicrodataDb::new("m", ["a", "b"]).unwrap();
        db.push_row(vec![Value::str("x"), Value::str("y")]).unwrap();
        let mut dict = MetadataDictionary::new();
        dict.register_attr("m", "a", "");
        dict.register_attr("m", "b", "");
        dict.set_category("m", "a", Category::QuasiIdentifier)
            .unwrap();
        dict.set_category("m", "b", Category::QuasiIdentifier)
            .unwrap();
        let restricted = ["b".to_string()];
        let view =
            MicrodataView::from_db_with(&db, &dict, NullSemantics::MaybeMatch, Some(&restricted))
                .unwrap();
        assert_eq!(view.qi_names, vec!["b"]);
        // restricting away everything is an error
        let none: [String; 0] = [];
        assert!(
            MicrodataView::from_db_with(&db, &dict, NullSemantics::MaybeMatch, Some(&none))
                .is_err()
        );
    }

    #[test]
    fn risky_tuples_thresholding() {
        let report = RiskReport {
            measure: "test".into(),
            risks: vec![0.1, 0.6, 0.5, 1.0],
            details: vec![TupleRiskDetail::default(); 4],
            notes: Vec::new(),
        };
        assert_eq!(report.risky_tuples(0.5), vec![1, 3]);
        assert_eq!(report.max_risk(), 1.0);
        assert!((report.mean_risk() - 0.55).abs() < 1e-12);
    }

    #[test]
    fn no_quasi_identifiers_is_an_error() {
        let mut db = MicrodataDb::new("m", ["a"]).unwrap();
        db.push_row(vec![Value::str("x")]).unwrap();
        let mut dict = MetadataDictionary::new();
        dict.register_attr("m", "a", "");
        dict.set_category("m", "a", Category::NonIdentifying)
            .unwrap();
        assert!(MicrodataView::from_db(&db, &dict).is_err());
    }

    #[test]
    fn helper_builds_views() {
        let v = view_of(vec![vec!["a", "b"], vec!["a", "c"]], None);
        assert_eq!(v.len(), 2);
        assert_eq!(v.width(), 2);
    }

    #[test]
    fn patch_cell_updates_values_masks_and_stats() {
        let mut v = view_of(vec![vec!["a", "x"], vec!["b", "x"], vec!["b", "y"]], None);
        let mut stats = v.group_stats();
        assert_eq!(stats.count, vec![1, 1, 1]);
        v.patch_cell(0, 0, &Value::Null(0), Some(&mut stats));
        assert_eq!(v.null_mask(0), 1);
        assert!(v.value(0, 0).is_null());
        // ⊥,x maybe-matches b,x
        assert_eq!(stats.count, vec![2, 2, 1]);
        let cold = v.group_stats();
        assert_eq!(stats.count, cold.count);
        assert_eq!(stats.weight_sum, cold.weight_sum);
    }

    #[test]
    fn patch_recode_rewrites_all_matching_cells() {
        let mut v = view_of(vec![vec!["a"], vec!["b"], vec!["a"]], None);
        let patched = v.patch_recode(0, &Value::str("a"), &Value::str("b"));
        assert_eq!(patched, vec![0, 2]);
        assert_eq!(v.group_stats().count, vec![3, 3, 3]);
        assert_eq!(v.value(0, 0), &Value::str("b"));
        // recoding a value the column never held is a no-op
        let none = v.patch_recode(0, &Value::str("zz"), &Value::str("b"));
        assert!(none.is_empty());
    }

    #[test]
    fn more_than_64_columns_is_refused() {
        // Column 64's null bit would wrap onto column 0.
        let names: Vec<String> = (0..65).map(|i| format!("q{i}")).collect();
        let mut row = vec![Value::str("a"); 65];
        row[64] = Value::Null(0);
        let err =
            MicrodataView::from_rows(names.clone(), vec![row], None, NullSemantics::MaybeMatch)
                .unwrap_err();
        assert!(err.to_string().contains("65 quasi-identifiers"), "{err}");
        // 64 columns still fit, with the last column's null on bit 63
        let mut row = vec![Value::str("a"); 64];
        row[63] = Value::Null(0);
        let v = MicrodataView::from_rows(
            names[..64].to_vec(),
            vec![row],
            None,
            NullSemantics::MaybeMatch,
        )
        .unwrap();
        assert_eq!(v.null_mask(0), 1 << 63);
        // a short row is refused rather than misaligning the code matrix
        let short = MicrodataView::from_rows(
            names[..2].to_vec(),
            vec![vec![Value::str("a")]],
            None,
            NullSemantics::MaybeMatch,
        );
        assert!(short.is_err());
    }

    #[test]
    fn index_follows_patches_out_of_and_back_into_patterns() {
        let mut v = view_of(
            vec![vec!["a", "x"], vec!["a", "x"], vec!["b", "y"]],
            Some(vec![1.5, 2.25, 4.0]),
        );
        let ax = v.pattern_of(0);
        assert_eq!(v.pattern_of(1), ax);
        let by = v.pattern_of(2);
        // row 0, the representative of (a, x), leaves while row 1 stays
        v.patch_cell(0, 0, &Value::str("b"), None);
        assert_eq!(v.pattern_of(1), ax);
        assert_eq!(v.patterns().rows_of(ax), 1);
        assert_eq!(v.patterns().codes_of(v.codes(), ax), v.row_codes(1));
        v.patterns().assert_consistent(v.codes(), v.null_masks());
        // row 2 empties (b, y), then row 0 re-enters those codes
        v.patch_cell(2, 1, &Value::str("x"), None);
        assert_eq!(v.patterns().rows_of(by), 0);
        assert_eq!(
            v.pattern_of(2),
            v.pattern_of(0),
            "both rows now hold (b, x)"
        );
        v.patch_cell(0, 1, &Value::str("y"), None);
        assert_ne!(v.pattern_of(0), by, "a retired id is never reused");
        v.patterns().assert_consistent(v.codes(), v.null_masks());
        // a recode moves every row of (b, x) and (a, x) at once
        v.patch_recode(1, &Value::str("x"), &Value::Null(7));
        v.patterns().assert_consistent(v.codes(), v.null_masks());
        let all: Vec<usize> = (0..v.width()).collect();
        let oracle = crate::columnar::group_stats_oracle(
            v.codes(),
            v.null_masks(),
            v.width(),
            &all,
            v.weights.as_deref(),
            v.semantics,
        );
        assert_eq!(v.group_stats(), oracle);
    }

    #[test]
    fn to_rows_roundtrips_through_from_rows() {
        let rows = vec![
            vec![Value::str("a"), Value::Null(3)],
            vec![Value::Int(7), Value::str("b")],
        ];
        let v = MicrodataView::from_rows(
            vec!["q0".into(), "q1".into()],
            rows.clone(),
            None,
            NullSemantics::Standard,
        )
        .unwrap();
        assert_eq!(v.to_rows(), rows);
        assert_eq!(v.null_cell_count(), 1);
        assert!(v.retained_bytes() > 0);
    }

    /// The plain encoder [`encode_rows`] replaced, kept as its oracle:
    /// every cell is looked up by content.
    fn encode_rows_plain(width: usize, rows: &[Vec<Value>]) -> Encoded {
        let mut dicts: Vec<ColumnDict> = (0..width).map(|_| ColumnDict::new()).collect();
        let mut codes: Vec<u32> = Vec::with_capacity(rows.len() * width);
        let mut null_masks: Vec<u64> = Vec::with_capacity(rows.len());
        for cells in rows {
            let mut mask = 0u64;
            for (k, v) in cells.iter().enumerate() {
                if v.is_null() {
                    mask |= 1 << k;
                }
                codes.push(dicts[k].intern(v));
            }
            null_masks.push(mask);
        }
        (dicts, codes, null_masks)
    }

    /// A column dictionary's values in code order, in wire encoding:
    /// equal images mean the same values bit for bit (`Int(2)` and
    /// `Float(2.0)`, or two NaN payloads, tell apart).
    fn dict_images(dicts: &[ColumnDict]) -> Vec<Vec<u8>> {
        dicts
            .iter()
            .map(|d| {
                let mut out = Vec::new();
                for v in d.values() {
                    vadalog::frame::wire::put_value(&mut out, v);
                }
                out
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The memoized encoder equals the plain one (same dictionaries,
        /// codes, null masks and pattern ids) on random tables mixing
        /// interned and separately allocated equal strings, `Int(k)` and
        /// `Float(k)`, NaN payloads, labelled nulls, and shared and
        /// separately built equal sets and tuples; also when a small size
        /// hint crowds the memo so that lookups miss.
        #[test]
        fn memoized_encoding_equals_the_plain_encoder(seed in 0u64..1_000_000) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let set = |k: i64| Value::set([Value::Int(k), Value::str("s")]);
            let shared = [set(0), Value::pair(Value::str("a"), Value::Int(1))];
            let width = rng.gen_range(1usize..=4);
            let rows: Vec<Vec<Value>> = (0..rng.gen_range(0usize..=300))
                .map(|_| {
                    (0..width)
                        .map(|_| {
                            let k = rng.gen_range(0i64..3);
                            let text = ["a", "b", "c"][k as usize];
                            match rng.gen_range(0u32..10) {
                                0 => Value::str(text),
                                1 => Value::Str(Arc::from(text)),
                                2 => Value::Int(k),
                                3 => Value::Float(k as f64),
                                4 => Value::Float(f64::from_bits(
                                    [0x7ff8_0000_0000_0000, 0x7ff8_0000_0000_0001, 0xfff8_0000_0000_0000]
                                        [k as usize],
                                )),
                                5 => Value::Null(k as u64),
                                6 => set(k),
                                7 => Value::pair(Value::str(text), Value::Int(k)),
                                _ => shared[k as usize % 2].clone(),
                            }
                        })
                        .collect()
                })
                .collect();
            let names: Vec<String> = (0..width).map(|c| format!("q{c}")).collect();
            for sem in [NullSemantics::MaybeMatch, NullSemantics::Standard] {
                let view = MicrodataView::from_rows(names.clone(), rows.clone(), None, sem).unwrap();
                let oracle = MicrodataView::assemble(names.clone(), None, sem, |w| {
                    Ok(encode_rows_plain(w, &rows))
                })
                .unwrap();
                prop_assert_eq!(dict_images(&view.dicts), dict_images(&oracle.dicts));
                prop_assert_eq!(view.codes(), oracle.codes());
                prop_assert_eq!(view.null_masks(), oracle.null_masks());
                for r in 0..rows.len() {
                    prop_assert_eq!(view.pattern_of(r), oracle.pattern_of(r));
                }
            }
            let hint = rng.gen_range(0..=rows.len());
            let (dicts, codes, masks) = encode_rows(width, hint, rows.iter().map(|r| r.iter()));
            let (plain_dicts, plain_codes, plain_masks) = encode_rows_plain(width, &rows);
            prop_assert_eq!(dict_images(&dicts), dict_images(&plain_dicts));
            prop_assert_eq!(codes, plain_codes);
            prop_assert_eq!(masks, plain_masks);
        }
    }

    /// Every row of a report as the cycle and its outputs read it: risk
    /// bits, frequency, weight-sum bits and note text (never the note
    /// index, which means nothing outside its report).
    fn rows_of(r: &RiskReport) -> Vec<(u64, usize, u64, String)> {
        assert_eq!(r.risks.len(), r.details.len(), "{}: rows", r.measure);
        (r.risks.iter().zip(&r.details).enumerate())
            .map(|(i, (x, d))| {
                (
                    x.to_bits(),
                    d.frequency,
                    d.weight_sum.to_bits(),
                    r.note(i).to_string(),
                )
            })
            .collect()
    }

    /// A weighted table with labelled nulls: rows `(a, b)` drawn from a
    /// small domain, every `null_every`-th row nulled in one column.
    fn mixed_view(picks: &[(i64, i64, u32)], null_every: usize) -> MicrodataView {
        let rows = (picks.iter().enumerate())
            .map(|(i, &(a, b, _))| {
                let mut row = vec![Value::Int(a), Value::Int(b)];
                if null_every > 0 && i % null_every == 0 {
                    row[i % 2] = Value::Null(i as u64);
                }
                row
            })
            .collect();
        let weights = picks.iter().map(|p| f64::from(p.2)).collect();
        MicrodataView::from_rows(
            vec!["a".into(), "b".into()],
            rows,
            Some(weights),
            NullSemantics::MaybeMatch,
        )
        .unwrap()
    }

    /// The measures served from group statistics.
    fn served() -> Vec<Box<dyn RiskMeasure>> {
        vec![
            Box::new(KAnonymity::new(2)),
            Box::new(KAnonymity::new(4)),
            Box::new(ReIdentification),
            Box::new(IndividualRisk::new(IrEstimator::Simple)),
            Box::new(IndividualRisk::new(IrEstimator::PosteriorMean)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Each measure served from groups writes into a report left by
        /// another measure, another length or other notes exactly the
        /// report a fresh evaluation returns, row for row.
        #[test]
        fn reports_refilled_from_groups_equal_fresh_evaluations(
            picks in proptest::collection::vec((0i64..3, 0i64..3, 1u32..40), 1..40),
            null_every in 0usize..5,
        ) {
            let view = mixed_view(&picks, null_every);
            let stats = view.group_stats();
            let longer: Vec<_> = picks.iter().chain(&picks).copied().collect();
            let reweighted: Vec<_> = picks.iter().map(|&(a, b, w)| (a, b, w + 3)).collect();
            let dirty = [
                Suda::new(2).evaluate(&view).unwrap(),
                KAnonymity::new(3).evaluate(&mixed_view(&longer, 2)).unwrap(),
                KAnonymity::new(2).evaluate(&mixed_view(&picks[..picks.len() / 2], 3)).unwrap(),
                IndividualRisk::default().evaluate(&mixed_view(&reweighted, null_every)).unwrap(),
            ];
            for measure in served() {
                prop_assert!(measure.serves_from_groups());
                let fresh = measure.evaluate(&view).unwrap();
                for d in &dirty {
                    let mut report = d.clone();
                    let filled = measure.report_from_groups(&view, &stats, &mut report);
                    prop_assert!(matches!(filled, Some(Ok(()))), "{}", measure.name());
                    prop_assert_eq!(&report.measure, &fresh.measure);
                    prop_assert_eq!(rows_of(&report), rows_of(&fresh), "{} over {}", measure.name(), d.measure);
                }
            }
        }
    }

    /// Every measure's note text on every row is what the measure formats
    /// for that row: one note per class size for k-anonymity, none for
    /// re-identification, one per `p̂` for individual risk, the MSU sizes
    /// for SUDA, and `ε` for presence.
    #[test]
    fn every_measures_note_text_is_its_format() {
        let picks: Vec<(i64, i64, u32)> = (0..30)
            .map(|i| (i % 3, (i * 7) % 4, 1 + (i as u32 * 13) % 9))
            .collect();
        let view = mixed_view(&picks, 4);
        let check = |report: &RiskReport, expected: &dyn Fn(usize) -> String| {
            assert_eq!(report.details.len(), view.len(), "{}", report.measure);
            for row in 0..view.len() {
                assert_eq!(
                    report.note(row),
                    expected(row),
                    "{}: row {row}",
                    report.measure
                );
            }
        };
        for k in [2, 5] {
            let r = KAnonymity::new(k).evaluate(&view).unwrap();
            check(&r, &|i| {
                format!("class size {} vs k={k}", r.details[i].frequency)
            });
        }
        let r = ReIdentification.evaluate(&view).unwrap();
        check(&r, &|_| String::new());
        for est in [IrEstimator::Simple, IrEstimator::PosteriorMean] {
            let r = IndividualRisk::new(est).evaluate(&view).unwrap();
            check(&r, &|i| {
                let d = &r.details[i];
                let p = (d.frequency as f64 / d.weight_sum).clamp(f64::MIN_POSITIVE, 1.0);
                format!("p̂={p:.6}")
            });
        }
        let msus = minimal_sample_uniques(&view, None);
        let r = Suda::new(2).evaluate(&view).unwrap();
        check(&r, &|i| format!("msu sizes {:?}", msus[i].sizes()));
        let r = PresenceRisk.evaluate(&view).unwrap();
        check(&r, &|i| {
            format!("ε={:.4}", PresenceRisk::epsilon(r.risks[i]))
        });
    }

    /// Bitwise stats comparison (`==` on `f64` would accept `0.0 == -0.0`).
    fn assert_bitwise(a: &GroupStats, b: &GroupStats, what: &str) {
        assert_eq!(a.count, b.count, "{what}: counts");
        let bits =
            |g: &GroupStats| -> Vec<u64> { g.weight_sum.iter().map(|f| f.to_bits()).collect() };
        assert_eq!(bits(a), bits(b), "{what}: weight bits");
    }

    /// Check the view's pattern kernel, full width and on `positions`,
    /// under both semantics and the given weights, against the row-level
    /// oracle (bit for bit) and against the
    /// `Value`-row pass of [`crate::maybe_match`] (bit for bit under
    /// integer weights, whose sums are exact in any order). The kernel
    /// also regroups into each of the `dirty` statistics, left by other
    /// tables, and must write exactly what it writes into fresh buffers.
    fn check_view(
        view: &MicrodataView,
        positions: &[usize],
        weights: &[f64],
        exact: bool,
        dirty: &[GroupStats],
    ) {
        use crate::columnar::group_stats_oracle;
        use crate::maybe_match::{group_stats, group_stats_on};
        view.patterns()
            .assert_consistent(view.codes(), view.null_masks());
        let rows = view.to_rows();
        let all: Vec<usize> = (0..view.width()).collect();
        for sem in [NullSemantics::MaybeMatch, NullSemantics::Standard] {
            for ws in [None, Some(weights)] {
                for cols in [&all[..], positions] {
                    let oracle = group_stats_oracle(
                        view.codes(),
                        view.null_masks(),
                        view.width(),
                        cols,
                        ws,
                        sem,
                    );
                    let fast = view.group_stats_on(cols, ws, sem);
                    assert_bitwise(&fast, &oracle, "pattern kernel vs oracle");
                    for d in dirty {
                        let mut refilled = d.clone();
                        view.fill_group_stats(cols, ws, sem, &mut refilled);
                        assert_bitwise(&refilled, &fast, "regroup into dirty buffers");
                    }
                    let by_rows = if cols.len() == all.len() {
                        group_stats(&rows, ws, sem)
                    } else {
                        group_stats_on(&rows, cols, ws, sem)
                    };
                    if exact || ws.is_none() {
                        assert_bitwise(&oracle, &by_rows, "oracle vs value rows");
                    } else {
                        assert_eq!(oracle.count, by_rows.count);
                        for (a, b) in oracle.weight_sum.iter().zip(&by_rows.weight_sum) {
                            assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{a} vs {b}");
                        }
                    }
                }
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The pattern kernel equals the oracles on random tables with
        /// labelled nulls, before and after every step of a patch
        /// sequence: a home row leaving a populated pattern and coming
        /// back, a retired pattern being re-entered, then random cell
        /// patches (fresh nulls, and constants drawn from the table's own
        /// small domain) and recodes. At every step it also regroups into
        /// statistics left by a longer table, a shorter one, one with
        /// nulls and one with other weights.
        #[test]
        fn pattern_kernel_matches_oracles_through_patches(
            table in proptest::collection::vec(
                proptest::collection::vec(
                    prop_oneof![
                        4 => (0i64..3).prop_map(Value::Int),
                        1 => (0u64..4).prop_map(Value::Null),
                    ],
                    4,
                ),
                1..=24,
            ),
            width in 1usize..=4,
            weights in proptest::collection::vec(1u32..40, 24),
            fractional in proptest::bool::ANY,
            positions in proptest::collection::btree_set(0usize..4, 0..=4),
            steps in proptest::collection::vec((0usize..24, 0usize..4, 0i64..5, 0i64..3), 0..=10),
        ) {
            let rows: Vec<Vec<Value>> = table.iter().map(|r| r[..width].to_vec()).collect();
            let weights: Vec<f64> = weights[..rows.len()]
                .iter()
                .map(|&w| if fractional { f64::from(w) * 0.1 } else { f64::from(w) })
                .collect();
            let positions: Vec<usize> = positions.into_iter().filter(|&c| c < width).collect();
            let mut view = MicrodataView::from_rows(
                (0..width).map(|c| format!("q{c}")).collect(),
                rows.clone(),
                Some(weights.clone()),
                NullSemantics::MaybeMatch,
            )
            .unwrap();
            let dirty = {
                let names: Vec<String> = (0..width).map(|c| format!("q{c}")).collect();
                let stats_of = |rows: Vec<Vec<Value>>, weights: Vec<f64>| {
                    MicrodataView::from_rows(names.clone(), rows, Some(weights), NullSemantics::MaybeMatch)
                        .unwrap()
                        .group_stats()
                };
                let longer: Vec<Vec<Value>> = rows.iter().chain(&rows).chain(&rows).cloned().collect();
                let nulled: Vec<Vec<Value>> = (rows.iter().enumerate())
                    .map(|(i, r)| {
                        let mut r = r.clone();
                        r[i % width] = Value::Null(50 + i as u64);
                        r
                    })
                    .collect();
                let reweighted: Vec<f64> = weights.iter().map(|w| w * 3.0 + 0.5).collect();
                vec![
                    stats_of(longer.clone(), longer.iter().map(|_| 7.0).collect()),
                    stats_of(rows[..rows.len() / 2].to_vec(), weights[..rows.len() / 2].to_vec()),
                    stats_of(nulled, weights.clone()),
                    stats_of(rows.clone(), reweighted),
                ]
            };
            check_view(&view, &positions, &weights, !fractional, &dirty);
            // Every case first moves a row out of its pattern and back:
            // the first row of a pattern others share (its home leaves a
            // populated pattern), and a row alone in its pattern (the
            // pattern retires, and writing the cell back re-enters it
            // under a new id).
            let size = |v: &MicrodataView, r: usize| v.patterns().rows_of(v.pattern_of(r));
            let shared = (0..rows.len()).find(|&r| {
                size(&view, r) > 1 && (0..r).all(|q| view.pattern_of(q) != view.pattern_of(r))
            });
            let alone = (0..rows.len()).find(|&r| size(&view, r) == 1);
            for (k, row) in [shared, alone].into_iter().flatten().enumerate() {
                let (before, cell) = (view.pattern_of(row), view.value(row, 0).clone());
                let held = size(&view, row);
                view.patch_cell(row, 0, &Value::Null(90 + k as u64), None);
                prop_assert_eq!(view.patterns().rows_of(before), held - 1);
                check_view(&view, &positions, &weights, !fractional, &dirty);
                view.patch_cell(row, 0, &cell, None);
                prop_assert_eq!(view.pattern_of(row) == before, held > 1);
                check_view(&view, &positions, &weights, !fractional, &dirty);
            }
            for (k, &(row, col, pick, to)) in steps.iter().enumerate() {
                let (row, col) = (row % rows.len(), col % width);
                match pick {
                    // suppress with a fresh labelled null
                    0 => view.patch_cell(row, col, &Value::Null(100 + k as u64), None),
                    // recode one constant of the column everywhere
                    1 => {
                        view.patch_recode(col, &Value::Int(to), &Value::Int((to + 1) % 3));
                    }
                    // write a constant from the table's domain
                    _ => view.patch_cell(row, col, &Value::Int(to), None),
                }
                check_view(&view, &positions, &weights, !fractional, &dirty);
            }
        }
    }
}
