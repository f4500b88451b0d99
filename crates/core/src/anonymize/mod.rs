//! Anonymization methods (paper §4.3, Algorithms 7 and 8).
//!
//! An [`Anonymizer`] applies **one minimal step** to a risky tuple: the
//! anonymization cycle then re-evaluates risk, so each threshold violation
//! removes the least information possible (preemptive, active and
//! statistics-preserving by construction). Two methods ship off the shelf,
//! as in the paper:
//!
//! - [`LocalSuppression`] — replace one quasi-identifier value with a fresh
//!   labelled null (Algorithm 7);
//! - [`GlobalRecoding`] — climb the domain hierarchy and coarsen a value
//!   *everywhere* it occurs (Algorithm 8).

mod hybrid;
mod local;
mod microagg;
mod recode;

pub use hybrid::HybridAnonymizer;
pub use local::LocalSuppression;
pub use microagg::{microaggregate, MicroaggregationOutcome};
pub use recode::{italian_geography, DomainHierarchy, GlobalRecoding};

use crate::columnar::mismatch_bits;
use crate::dictionary::{DictionaryError, MetadataDictionary};
use crate::maybe_match::NullSemantics;
use crate::model::{MicrodataDb, ModelError};
use crate::risk::{MicrodataView, RiskError};
use std::fmt;
use vadalog::Value;

/// Which quasi-identifier of a risky tuple to act on first (paper §4.4,
/// "prioritization of quasi-identifiers").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AttributeOrder {
    /// The "most risky first" greedy strategy as the paper describes it:
    /// "the strategy itself would rely on a Vadalog program computing the
    /// risk, in order to take informed decisions". For each candidate
    /// attribute we compute the equivalence-class size the tuple would
    /// have after suppressing it (matching on the remaining
    /// quasi-identifiers, null-tolerantly) and act on the attribute giving
    /// the **widest lift** — in Figure 5a this suppresses
    /// `Sector = Textiles` for tuple 1, which "removes any sample unique
    /// of the tuple, which then occurs with frequency 5".
    #[default]
    MostRiskyFirst,
    /// A cheaper proxy: act on the attribute whose value is most selective
    /// (smallest value frequency in its own column).
    MostSelectiveFirst,
    /// Schema order: first candidate attribute wins. Mirrors an unguided
    /// binding order and serves as the ablation baseline.
    SchemaOrder,
}

/// The concrete change an anonymization step performed.
#[derive(Debug, Clone, PartialEq)]
pub enum AnonymizationAction {
    /// A single cell was replaced by a labelled null.
    Suppress {
        /// Row index.
        row: usize,
        /// Attribute name.
        attr: String,
        /// The suppressed constant.
        previous: Value,
    },
    /// A value was rolled up to its parent across the whole column.
    Recode {
        /// Attribute name.
        attr: String,
        /// Original (finer) value.
        from: Value,
        /// Replacement (coarser) value.
        to: Value,
        /// Number of cells rewritten.
        rows_affected: usize,
    },
    /// The tuple cannot be anonymized further (e.g. every quasi-identifier
    /// is already suppressed, or no hierarchy step applies).
    Exhausted {
        /// Row index.
        row: usize,
    },
}

/// Anonymization failures.
#[derive(Debug)]
pub enum AnonymizeError {
    /// Dictionary lookup failed.
    Dictionary(DictionaryError),
    /// Microdata access failed.
    Model(ModelError),
    /// The columnar view of the table could not be built.
    View(String),
}

impl fmt::Display for AnonymizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnonymizeError::Dictionary(e) => write!(f, "{e}"),
            AnonymizeError::Model(e) => write!(f, "{e}"),
            AnonymizeError::View(m) => write!(f, "invalid view: {m}"),
        }
    }
}

impl std::error::Error for AnonymizeError {}

impl From<DictionaryError> for AnonymizeError {
    fn from(e: DictionaryError) -> Self {
        AnonymizeError::Dictionary(e)
    }
}
impl From<ModelError> for AnonymizeError {
    fn from(e: ModelError) -> Self {
        AnonymizeError::Model(e)
    }
}
impl From<RiskError> for AnonymizeError {
    fn from(e: RiskError) -> Self {
        match e {
            RiskError::Dictionary(e) => AnonymizeError::Dictionary(e),
            RiskError::Model(e) => AnonymizeError::Model(e),
            RiskError::View(m) => AnonymizeError::View(m),
        }
    }
}

/// A pluggable anonymization method: the `anonymize` atom of Algorithm 2.
pub trait Anonymizer {
    /// Name used in audit logs.
    fn name(&self) -> &str;

    /// Apply one minimal anonymization step to `row`, returning what was
    /// done. Implementations must guarantee *progress or exhaustion*: a
    /// sequence of steps on the same tuple eventually returns
    /// [`AnonymizationAction::Exhausted`].
    ///
    /// `view` is the columnar projection of `db` onto all its
    /// quasi-identifiers, in sync with `db` on entry; the step reads its
    /// rankings from the view's codes and writes only to `db` (the caller
    /// patches the view from the returned action, as the cycle does).
    fn anonymize_step_with(
        &self,
        db: &mut MicrodataDb,
        dict: &MetadataDictionary,
        view: &MicrodataView,
        row: usize,
    ) -> Result<AnonymizationAction, AnonymizeError>;

    /// [`anonymize_step_with`](Self::anonymize_step_with) on a view built
    /// from `db` for this one call. A table without quasi-identifiers has
    /// nothing to anonymize: the tuple is exhausted.
    fn anonymize_step(
        &self,
        db: &mut MicrodataDb,
        dict: &MetadataDictionary,
        row: usize,
    ) -> Result<AnonymizationAction, AnonymizeError> {
        if dict.quasi_identifiers(&db.name)?.is_empty() {
            return Ok(AnonymizationAction::Exhausted { row });
        }
        let view = MicrodataView::from_db_with(db, dict, NullSemantics::MaybeMatch, None)?;
        self.anonymize_step_with(db, dict, &view, row)
    }
}

/// Rank a tuple's candidate quasi-identifiers according to `order`,
/// reading the view's codes and null masks. Returns attribute names, most
/// preferred first; attributes whose cell is already a labelled null are
/// excluded.
///
/// `MostRiskyFirst` sorts by lift (descending), then value frequency
/// (ascending), then attribute name; `MostSelectiveFirst` drops the lift
/// key. Lift always compares under maybe-match, whatever the view's own
/// semantics: a null matches anything.
pub(crate) fn candidate_attrs(
    db: &MicrodataDb,
    view: &MicrodataView,
    row: usize,
    order: AttributeOrder,
) -> Result<Vec<String>, AnonymizeError> {
    if row >= view.len() {
        return Err(ModelError::RowOutOfBounds(row).into());
    }
    debug_assert!(
        view.qi_names
            .iter()
            .enumerate()
            .all(|(c, a)| db.value(row, a).ok() == Some(view.value(row, c))),
        "the view is out of sync with the table at row {row}"
    );
    let nulls = view.null_mask(row);
    let mut candidates: Vec<usize> = (0..view.width())
        .filter(|&c| nulls & (1 << c) == 0)
        .collect();
    if order != AttributeOrder::SchemaOrder && candidates.len() > 1 {
        let (mut lift, freq) = scan(view, row);
        if order == AttributeOrder::MostSelectiveFirst {
            lift.fill(0);
        }
        candidates.sort_by(|&a, &b| {
            lift[b]
                .cmp(&lift[a])
                .then_with(|| freq[a].cmp(&freq[b]))
                .then_with(|| view.qi_names[a].cmp(&view.qi_names[b]))
        });
    }
    Ok(candidates
        .into_iter()
        .map(|c| view.qi_names[c].clone())
        .collect())
}

/// One pass over the view for target `row`. Per column, `lift` counts the
/// rows that would join the target's maybe-match class were that column
/// suppressed (the rows whose only mismatch is there, plus the rows that
/// match everywhere), and `freq` counts the rows holding the target's code.
/// The view must have at least one column.
fn scan(view: &MicrodataView, row: usize) -> (Vec<usize>, Vec<usize>) {
    let width = view.width();
    let target = view.row_codes(row);
    let target_nulls = view.null_mask(row);
    let mut freq = vec![0usize; width];
    let mut lift = vec![0usize; width];
    let mut exact = 0usize;
    for (codes, &nulls) in view.codes().chunks_exact(width).zip(view.null_masks()) {
        let diff = mismatch_bits(codes, target);
        for (c, f) in freq.iter_mut().enumerate() {
            *f += usize::from(diff & (1 << c) == 0);
        }
        // a null on either side matches anything
        let mismatch = diff & !(nulls | target_nulls);
        match mismatch.count_ones() {
            0 => exact += 1,
            1 => lift[mismatch.trailing_zeros() as usize] += 1,
            _ => {}
        }
    }
    for l in &mut lift {
        *l += exact;
    }
    (lift, freq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::Category;
    use proptest::prelude::*;

    /// The `Value`-row ranking the view kernel replaced, kept verbatim as
    /// its oracle.
    fn oracle_candidate_attrs(
        db: &MicrodataDb,
        dict: &MetadataDictionary,
        row: usize,
        order: AttributeOrder,
    ) -> Result<Vec<String>, AnonymizeError> {
        let qis = dict.quasi_identifiers(&db.name)?;
        let mut candidates: Vec<String> = Vec::new();
        for attr in &qis {
            if !db.value(row, attr)?.is_null() {
                candidates.push(attr.clone());
            }
        }
        match order {
            AttributeOrder::SchemaOrder => Ok(candidates),
            AttributeOrder::MostSelectiveFirst => {
                // frequency of this row's value within each candidate column
                let mut keyed: Vec<(usize, String)> = Vec::with_capacity(candidates.len());
                for attr in candidates {
                    let v = db.value(row, &attr)?.clone();
                    let freq = db.column(&attr)?.into_iter().filter(|x| **x == v).count();
                    keyed.push((freq, attr));
                }
                keyed.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
                Ok(keyed.into_iter().map(|(_, a)| a).collect())
            }
            AttributeOrder::MostRiskyFirst => {
                // widest lift: class size after suppressing each candidate
                // (match on the remaining quasi-identifiers, null-tolerantly),
                // largest first. Ties break toward the rarer value so the
                // behaviour degrades gracefully to MostSelectiveFirst.
                //
                // Single pass over the table: a row contributes to candidate
                // `j`'s lift iff its only quasi-identifier mismatch with the
                // target (if any) is at position `j`.
                use crate::maybe_match::{values_match, NullSemantics};
                let cols: Vec<usize> = qis
                    .iter()
                    .map(|q| db.attr_position(q))
                    .collect::<Result<_, _>>()?;
                let target = db.row(row)?.to_vec();
                let mut lift = vec![0usize; qis.len()];
                let mut exact_and_all = vec![0usize; qis.len()]; // rows matching everywhere
                let mut value_freq = vec![0usize; qis.len()];
                for r in db.iter_rows() {
                    let mut mismatch: Option<usize> = None;
                    let mut multi = false;
                    for (qi_idx, &c) in cols.iter().enumerate() {
                        if !values_match(&r[c], &target[c], NullSemantics::MaybeMatch) {
                            if mismatch.is_some() {
                                multi = true;
                            }
                            mismatch = Some(qi_idx);
                        }
                        if r[c] == target[c] {
                            value_freq[qi_idx] += 1;
                        }
                    }
                    if multi {
                        continue;
                    }
                    match mismatch {
                        None => {
                            for e in exact_and_all.iter_mut() {
                                *e += 1;
                            }
                        }
                        Some(j) => lift[j] += 1,
                    }
                }
                let mut keyed: Vec<(usize, usize, String)> = Vec::with_capacity(candidates.len());
                for attr in candidates {
                    let j = qis.iter().position(|q| *q == attr).expect("attr is a QI");
                    keyed.push((lift[j] + exact_and_all[j], value_freq[j], attr));
                }
                keyed.sort_by(|a, b| {
                    b.0.cmp(&a.0)
                        .then_with(|| a.1.cmp(&b.1))
                        .then_with(|| a.2.cmp(&b.2))
                });
                Ok(keyed.into_iter().map(|(_, _, a)| a).collect())
            }
        }
    }

    /// The view-backed ranking on a fresh maybe-match view.
    fn rank(
        db: &MicrodataDb,
        dict: &MetadataDictionary,
        row: usize,
        order: AttributeOrder,
    ) -> Vec<String> {
        let view = MicrodataView::from_db(db, dict).unwrap();
        candidate_attrs(db, &view, row, order).unwrap()
    }

    fn fig5a() -> (MicrodataDb, MetadataDictionary) {
        let mut db =
            MicrodataDb::new("fig5", ["Id", "Area", "Sector", "Employees", "ResRev"]).unwrap();
        let rows = [
            ("099876", "Roma", "Textiles", "1000+", "0-30"),
            ("765389", "Roma", "Commerce", "1000+", "0-30"),
            ("231654", "Roma", "Commerce", "1000+", "0-30"),
            ("097302", "Roma", "Financial", "1000+", "0-30"),
            ("120967", "Roma", "Financial", "1000+", "0-30"),
            ("232498", "Milano", "Construction", "0-200", "60-90"),
            ("340901", "Torino", "Construction", "0-200", "60-90"),
        ];
        for (id, a, s, e, r) in rows {
            db.push_row(vec![
                Value::str(id),
                Value::str(a),
                Value::str(s),
                Value::str(e),
                Value::str(r),
            ])
            .unwrap();
        }
        let mut dict = MetadataDictionary::new();
        for a in ["Id", "Area", "Sector", "Employees", "ResRev"] {
            dict.register_attr("fig5", a, "");
        }
        dict.set_category("fig5", "Id", Category::Identifier)
            .unwrap();
        for a in ["Area", "Sector", "Employees", "ResRev"] {
            dict.set_category("fig5", a, Category::QuasiIdentifier)
                .unwrap();
        }
        (db, dict)
    }

    #[test]
    fn most_selective_first_picks_textiles_for_tuple_1() {
        let (db, dict) = fig5a();
        let order = rank(&db, &dict, 0, AttributeOrder::MostSelectiveFirst);
        assert_eq!(order[0], "Sector"); // Textiles occurs once
    }

    #[test]
    fn schema_order_keeps_declaration_order() {
        let (db, dict) = fig5a();
        let order = rank(&db, &dict, 0, AttributeOrder::SchemaOrder);
        assert_eq!(order, vec!["Area", "Sector", "Employees", "ResRev"]);
    }

    #[test]
    fn null_cells_are_not_candidates() {
        let (mut db, dict) = fig5a();
        let n = db.fresh_null();
        db.set_value(0, "Sector", n).unwrap();
        let order = rank(&db, &dict, 0, AttributeOrder::MostSelectiveFirst);
        assert!(!order.contains(&"Sector".to_string()));
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn most_risky_first_picks_the_widest_lift() {
        // Figure 5a: suppressing Sector lifts tuple 1 into a class of 5
        let (db, dict) = fig5a();
        let order = rank(&db, &dict, 0, AttributeOrder::MostRiskyFirst);
        assert_eq!(order[0], "Sector");
        assert_eq!(
            order,
            oracle_candidate_attrs(&db, &dict, 0, AttributeOrder::MostRiskyFirst).unwrap()
        );
    }

    #[test]
    fn out_of_range_rows_are_structured_errors() {
        let (db, dict) = fig5a();
        let view = MicrodataView::from_db(&db, &dict).unwrap();
        let err = candidate_attrs(&db, &view, db.len(), AttributeOrder::MostRiskyFirst);
        assert!(matches!(
            err,
            Err(AnonymizeError::Model(ModelError::RowOutOfBounds(7)))
        ));
        let mut db = db;
        let step = LocalSuppression::default().anonymize_step(&mut db, &dict, 99);
        assert!(matches!(step, Err(AnonymizeError::Model(_))));
    }

    #[test]
    fn standalone_step_without_quasi_identifiers_is_exhausted() {
        let mut db = MicrodataDb::new("t", ["a"]).unwrap();
        db.push_row(vec![Value::str("x")]).unwrap();
        let mut dict = MetadataDictionary::new();
        dict.register_attr("t", "a", "");
        dict.set_category("t", "a", Category::NonIdentifying)
            .unwrap();
        let step = LocalSuppression::default().anonymize_step(&mut db, &dict, 0);
        assert_eq!(step.unwrap(), AnonymizationAction::Exhausted { row: 0 });
    }

    #[test]
    fn view_build_failures_are_structured_errors() {
        // a non-numeric weight column cannot be projected into a view
        let mut db = MicrodataDb::new("t", ["a", "w"]).unwrap();
        db.push_row(vec![Value::str("x"), Value::str("heavy")])
            .unwrap();
        let mut dict = MetadataDictionary::new();
        dict.register_attr("t", "a", "");
        dict.register_attr("t", "w", "");
        dict.set_category("t", "a", Category::QuasiIdentifier)
            .unwrap();
        dict.set_category("t", "w", Category::Weight).unwrap();
        let step = LocalSuppression::default().anonymize_step(&mut db, &dict, 0);
        assert!(matches!(step, Err(AnonymizeError::Model(_))));
    }

    /// A table with quasi-identifiers named out of schema order, so the
    /// name tie-break is exercised, plus an identifier column in front.
    fn db_of(rows: &[Vec<Value>], width: usize) -> (MicrodataDb, MetadataDictionary) {
        let qis = ["Sector", "Area", "Zone", "Band"];
        let mut attrs = vec!["Id"];
        attrs.extend(&qis[..width]);
        let mut db = MicrodataDb::new("p", attrs.clone()).unwrap();
        for (i, r) in rows.iter().enumerate() {
            let mut cells = vec![Value::Int(i as i64)];
            cells.extend(r[..width].iter().cloned());
            db.push_row(cells).unwrap();
        }
        let mut dict = MetadataDictionary::new();
        for a in &attrs {
            dict.register_attr("p", *a, "");
        }
        dict.set_category("p", "Id", Category::Identifier).unwrap();
        for q in &qis[..width] {
            dict.set_category("p", q, Category::QuasiIdentifier)
                .unwrap();
        }
        (db, dict)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The view kernel ranks exactly as the `Value`-row oracle, for
        /// every attribute order and under either view semantics (the
        /// ranking itself always compares under maybe-match).
        #[test]
        fn view_ranking_matches_value_row_oracle(
            rows in proptest::collection::vec(
                proptest::collection::vec(
                    prop_oneof![
                        4 => (0i64..3).prop_map(Value::Int),
                        1 => (0u8..2).prop_map(|v| Value::str(format!("s{v}"))),
                        2 => (0u64..6).prop_map(Value::Null),
                    ],
                    4,
                ),
                1..=24,
            ),
            width in 1usize..=4,
        ) {
            let (db, dict) = db_of(&rows, width);
            for sem in [NullSemantics::MaybeMatch, NullSemantics::Standard] {
                let view = MicrodataView::from_db_with(&db, &dict, sem, None).unwrap();
                for order in [
                    AttributeOrder::MostRiskyFirst,
                    AttributeOrder::MostSelectiveFirst,
                    AttributeOrder::SchemaOrder,
                ] {
                    for row in 0..db.len() {
                        prop_assert_eq!(
                            candidate_attrs(&db, &view, row, order).unwrap(),
                            oracle_candidate_attrs(&db, &dict, row, order).unwrap(),
                            "row {} under {:?}/{:?}", row, order, sem
                        );
                    }
                }
            }
        }
    }
}
