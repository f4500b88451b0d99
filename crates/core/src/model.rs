//! The microdata model: schema-independent tables whose cells are engine
//! values (constants or labelled nulls).
//!
//! A *microdata DB* (paper §2.1) is a relation `M(i, q, a, W)` where `i`
//! are direct identifiers, `q` quasi-identifiers, `a` non-identifying
//! attributes and `W` a sampling weight. Which column plays which role is
//! *not* part of this struct — it lives in the
//! [`MetadataDictionary`](crate::dictionary::MetadataDictionary), keeping
//! the framework schema-independent: all algorithms reason over attribute
//! *names* drawn from the dictionary, never over fixed positions.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use vadalog::Value;

/// Rows per storage block of a [`MicrodataDb`]: the unit a clone shares
/// and a write copies.
const BLOCK_ROWS: usize = 64;

/// A schema-independent microdata table.
#[derive(Debug, Clone)]
pub struct MicrodataDb {
    /// Logical name (e.g. `"I&G"`).
    pub name: String,
    /// Column names, in declaration order.
    attributes: Vec<String>,
    /// Column name → position.
    attr_index: HashMap<String, usize>,
    /// Row-major cells in blocks of [`BLOCK_ROWS`] rows: one allocation
    /// per block rather than one per row. Blocks are shared copy-on-write,
    /// so a clone copies one handle per block, and a write copies the
    /// block it lands in only while another table still holds it. The
    /// first block grows on demand (small tables stay small); later ones
    /// are allocated whole, so appending never moves more than one
    /// block's cells.
    blocks: Vec<Arc<Vec<Value>>>,
    /// Number of rows (kept apart: a zero-width schema has no cells).
    rows: usize,
    /// Labelled-null counter for suppression.
    next_null: u64,
}

/// Errors raised by microdata construction and mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A row's arity does not match the schema.
    ArityMismatch {
        /// Expected number of cells.
        expected: usize,
        /// Provided number of cells.
        got: usize,
    },
    /// Referenced attribute does not exist.
    UnknownAttribute(String),
    /// Referenced row index is out of bounds.
    RowOutOfBounds(usize),
    /// Duplicate attribute name in the schema.
    DuplicateAttribute(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::ArityMismatch { expected, got } => {
                write!(f, "row has {got} cells, schema expects {expected}")
            }
            ModelError::UnknownAttribute(a) => write!(f, "unknown attribute '{a}'"),
            ModelError::RowOutOfBounds(i) => write!(f, "row index {i} out of bounds"),
            ModelError::DuplicateAttribute(a) => write!(f, "duplicate attribute '{a}'"),
        }
    }
}

impl std::error::Error for ModelError {}

impl MicrodataDb {
    /// Create an empty microdata DB with the given schema.
    pub fn new(
        name: impl Into<String>,
        attributes: impl IntoIterator<Item = impl Into<String>>,
    ) -> Result<Self, ModelError> {
        let attributes: Vec<String> = attributes.into_iter().map(Into::into).collect();
        let mut attr_index = HashMap::with_capacity(attributes.len());
        for (i, a) in attributes.iter().enumerate() {
            if attr_index.insert(a.clone(), i).is_some() {
                return Err(ModelError::DuplicateAttribute(a.clone()));
            }
        }
        Ok(MicrodataDb {
            name: name.into(),
            attributes,
            attr_index,
            blocks: Vec::new(),
            rows: 0,
            next_null: 0,
        })
    }

    /// Attribute names in schema order.
    pub fn attributes(&self) -> &[String] {
        &self.attributes
    }

    /// Position of an attribute.
    pub fn attr_position(&self, name: &str) -> Result<usize, ModelError> {
        self.attr_index
            .get(name)
            .copied()
            .ok_or_else(|| ModelError::UnknownAttribute(name.to_string()))
    }

    /// Append a row.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<usize, ModelError> {
        if row.len() != self.attributes.len() {
            return Err(ModelError::ArityMismatch {
                expected: self.attributes.len(),
                got: row.len(),
            });
        }
        for v in &row {
            if let Value::Null(n) = v {
                if *n >= self.next_null {
                    self.next_null = n + 1;
                }
            }
        }
        if self.rows.is_multiple_of(BLOCK_ROWS) {
            let whole = if self.blocks.is_empty() {
                0
            } else {
                BLOCK_ROWS
            };
            self.blocks
                .push(Arc::new(Vec::with_capacity(whole * self.attributes.len())));
        }
        if let Some(block) = self.blocks.last_mut() {
            Arc::make_mut(block).extend(row);
        }
        self.rows += 1;
        Ok(self.rows - 1)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The cells of row `idx`, which must be in range.
    fn cells_of(&self, idx: usize) -> &[Value] {
        let w = self.attributes.len();
        let at = (idx % BLOCK_ROWS) * w;
        &self.blocks[idx / BLOCK_ROWS][at..at + w]
    }

    /// Borrow a row.
    pub fn row(&self, idx: usize) -> Result<&[Value], ModelError> {
        if idx < self.rows {
            Ok(self.cells_of(idx))
        } else {
            Err(ModelError::RowOutOfBounds(idx))
        }
    }

    /// Iterate rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[Value]> {
        (0..self.rows).map(|i| self.cells_of(i))
    }

    /// Cell value by row index and attribute name.
    pub fn value(&self, row: usize, attr: &str) -> Result<&Value, ModelError> {
        let col = self.attr_position(attr)?;
        Ok(&self.row(row)?[col])
    }

    /// Overwrite a cell.
    pub fn set_value(&mut self, row: usize, attr: &str, v: Value) -> Result<(), ModelError> {
        let col = self.attr_position(attr)?;
        self.set_cell(row, col, v)
    }

    /// Overwrite the cell at `row` and column position `col`.
    pub fn set_cell(&mut self, row: usize, col: usize, v: Value) -> Result<(), ModelError> {
        if row >= self.rows {
            return Err(ModelError::RowOutOfBounds(row));
        }
        if col >= self.attributes.len() {
            return Err(ModelError::UnknownAttribute(format!("#{col}")));
        }
        if let Value::Null(n) = &v {
            if *n >= self.next_null {
                self.next_null = n + 1;
            }
        }
        let at = (row % BLOCK_ROWS) * self.attributes.len() + col;
        Arc::make_mut(&mut self.blocks[row / BLOCK_ROWS])[at] = v;
        Ok(())
    }

    /// The row ranges, one per storage block and ascending, that this
    /// table does not share with `other`. A row outside them holds the
    /// very cells of `other`'s row, so comparing a table with one it was
    /// cloned from (or that was cloned from it) needs to read only these
    /// rows. Rows past the end of `other` are never shared.
    pub fn unshared_rows<'a>(
        &'a self,
        other: &'a MicrodataDb,
    ) -> impl Iterator<Item = Range<usize>> + 'a {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(b, block)| other.blocks.get(*b).is_none_or(|o| !Arc::ptr_eq(block, o)))
            .map(|(b, _)| b * BLOCK_ROWS..self.rows.min((b + 1) * BLOCK_ROWS))
    }

    /// Mint a fresh labelled null (unique within this table's lifetime).
    pub fn fresh_null(&mut self) -> Value {
        let id = self.next_null;
        self.next_null += 1;
        Value::Null(id)
    }

    /// How many labelled nulls have been minted or imported.
    pub fn nulls_minted(&self) -> u64 {
        self.next_null
    }

    /// Raise the labelled-null counter to at least `n`, so the next
    /// [`fresh_null`](Self::fresh_null) mints `⊥n` or later. Used by
    /// checkpoint restore to reproduce the exact null labels an
    /// interrupted run would have minted; never lowers the counter.
    pub fn reserve_nulls(&mut self, n: u64) {
        if n > self.next_null {
            self.next_null = n;
        }
    }

    /// Count of null cells across the listed attributes (all if empty).
    pub fn null_cells(&self, attrs: &[String]) -> usize {
        let cols: Vec<usize> = if attrs.is_empty() {
            (0..self.attributes.len()).collect()
        } else {
            attrs
                .iter()
                .filter_map(|a| self.attr_index.get(a).copied())
                .collect()
        };
        self.iter_rows()
            .map(|r| cols.iter().filter(|&&c| r[c].is_null()).count())
            .sum()
    }

    /// Borrow an entire column by attribute name. Returns one reference
    /// per row — no cell is cloned (callers that need owned values clone
    /// selectively at the use site).
    pub fn column(&self, attr: &str) -> Result<Vec<&Value>, ModelError> {
        let col = self.attr_position(attr)?;
        Ok(self.iter_rows().map(|r| &r[col]).collect())
    }

    /// An indexed, borrowed projection of the listed attributes: column
    /// positions are resolved once and cells are reached by reference, so
    /// projecting costs O(columns) instead of O(cells) clones.
    pub fn project(&self, attrs: &[String]) -> Result<Projection<'_>, ModelError> {
        let cols: Vec<usize> = attrs
            .iter()
            .map(|a| self.attr_position(a))
            .collect::<Result<_, _>>()?;
        Ok(Projection { db: self, cols })
    }

    /// Raw column positions for the listed attributes (projection
    /// plumbing for callers that keep their own row loop).
    pub fn positions(&self, attrs: &[String]) -> Result<Vec<usize>, ModelError> {
        attrs.iter().map(|a| self.attr_position(a)).collect()
    }

    /// Numeric view of a column (errors on the first non-numeric cell).
    pub fn numeric_column(&self, attr: &str) -> Result<Vec<f64>, ModelError> {
        let col = self.attr_position(attr)?;
        self.iter_rows()
            .map(|r| {
                r[col].as_f64().ok_or_else(|| {
                    ModelError::UnknownAttribute(format!(
                        "attribute '{attr}' holds non-numeric value {}",
                        r[col]
                    ))
                })
            })
            .collect()
    }
}

/// A borrowed, indexed projection of a [`MicrodataDb`] onto a subset of
/// its attributes. Holds only the source reference and the resolved
/// column positions; every cell access borrows from the table.
#[derive(Debug, Clone)]
pub struct Projection<'a> {
    db: &'a MicrodataDb,
    cols: Vec<usize>,
}

impl<'a> Projection<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.db.len()
    }

    /// Is the projection empty?
    pub fn is_empty(&self) -> bool {
        self.db.is_empty()
    }

    /// Number of projected columns.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Borrow the cell at `(row, col)` (col indexes the projection).
    pub fn value(&self, row: usize, col: usize) -> &'a Value {
        &self.db.cells_of(row)[self.cols[col]]
    }

    /// One projected row as cell references.
    pub fn row(&self, row: usize) -> Vec<&'a Value> {
        self.cols
            .iter()
            .map(|&c| &self.db.cells_of(row)[c])
            .collect()
    }

    /// Iterate projected rows as cell references.
    pub fn iter_rows(&self) -> impl Iterator<Item = Vec<&'a Value>> + '_ {
        (0..self.len()).map(|r| self.row(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn sample() -> MicrodataDb {
        let mut db = MicrodataDb::new("t", ["id", "area", "w"]).unwrap();
        db.push_row(vec![Value::Int(1), Value::str("North"), Value::Int(10)])
            .unwrap();
        db.push_row(vec![Value::Int(2), Value::str("South"), Value::Int(20)])
            .unwrap();
        db
    }

    #[test]
    fn construction_and_access() {
        let db = sample();
        assert_eq!(db.len(), 2);
        assert_eq!(db.value(0, "area").unwrap(), &Value::str("North"));
        assert_eq!(db.attr_position("w").unwrap(), 2);
    }

    #[test]
    fn rows_span_storage_blocks() {
        let n = 2 * BLOCK_ROWS + 5;
        let mut db = MicrodataDb::new("t", ["i", "sq"]).unwrap();
        for i in 0..n as i64 {
            assert_eq!(
                db.push_row(vec![Value::Int(i), Value::Int(i * i)]),
                Ok(i as usize)
            );
        }
        let last = BLOCK_ROWS as i64;
        db.set_value(BLOCK_ROWS, "sq", Value::Null(7)).unwrap();
        assert_eq!(
            db.value(BLOCK_ROWS - 1, "sq").unwrap(),
            &Value::Int((last - 1).pow(2))
        );
        assert!(db.value(BLOCK_ROWS, "sq").unwrap().is_null());
        assert_eq!(
            db.row(n - 1).unwrap(),
            &[Value::Int(n as i64 - 1), Value::Int((n as i64 - 1).pow(2))]
        );
        assert!(matches!(db.row(n), Err(ModelError::RowOutOfBounds(_))));
        assert!(db.set_value(n, "i", Value::Int(0)).is_err());
        let copy = db.clone();
        assert!(copy.iter_rows().eq(db.iter_rows()));
        assert_eq!(copy.iter_rows().count(), n);
        assert_eq!(db.null_cells(&[]), 1);
        assert_eq!(db.nulls_minted(), 8);
    }

    #[test]
    fn zero_width_tables_count_rows() {
        let mut db = MicrodataDb::new("t", Vec::<String>::new()).unwrap();
        for _ in 0..BLOCK_ROWS + 1 {
            db.push_row(Vec::new()).unwrap();
        }
        assert_eq!(db.len(), BLOCK_ROWS + 1);
        assert_eq!(db.row(BLOCK_ROWS).unwrap(), &[] as &[Value]);
        assert_eq!(db.iter_rows().count(), BLOCK_ROWS + 1);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut db = sample();
        assert!(matches!(
            db.push_row(vec![Value::Int(3)]),
            Err(ModelError::ArityMismatch {
                expected: 3,
                got: 1
            })
        ));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        assert!(matches!(
            MicrodataDb::new("t", ["a", "a"]),
            Err(ModelError::DuplicateAttribute(_))
        ));
    }

    #[test]
    fn unknown_attribute_rejected() {
        let db = sample();
        assert!(db.value(0, "zz").is_err());
        assert!(db.column("zz").is_err());
    }

    #[test]
    fn fresh_nulls_are_distinct_and_tracked() {
        let mut db = sample();
        let n1 = db.fresh_null();
        let n2 = db.fresh_null();
        assert_ne!(n1, n2);
        db.set_value(0, "area", n1).unwrap();
        assert_eq!(db.null_cells(&["area".to_string()]), 1);
        assert_eq!(db.null_cells(&[]), 1);
    }

    #[test]
    fn imported_nulls_advance_counter() {
        let mut db = MicrodataDb::new("t", ["a"]).unwrap();
        db.push_row(vec![Value::Null(5)]).unwrap();
        assert_eq!(db.fresh_null(), Value::Null(6));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random `set_cell`/`push_row` sequences on a table and on its
        /// clones, aimed at the rows on either side of block boundaries,
        /// never show through to the other side, and every row where the
        /// two differ lies in a range `unshared_rows` names.
        #[test]
        fn writes_to_a_table_or_its_clone_never_show_through(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let width = rng.gen_range(1usize..=3);
            let mut a = MicrodataDb::new("a", (0..width).map(|c| format!("c{c}"))).unwrap();
            let mut model_a: Vec<Vec<Value>> = Vec::new();
            // every written cell is new, so a leaked write cannot hide
            let mut cell = 0i64;
            let fresh_row = |rng: &mut StdRng, cell: &mut i64| -> Vec<Value> {
                (0..width)
                    .map(|_| {
                        *cell += 1;
                        if rng.gen_bool(0.2) { Value::Null(*cell as u64) } else { Value::Int(*cell) }
                    })
                    .collect()
            };
            for _ in 0..rng.gen_range(0..=3 * BLOCK_ROWS) {
                let row = fresh_row(&mut rng, &mut cell);
                a.push_row(row.clone()).unwrap();
                model_a.push(row);
            }
            let (mut b, mut model_b) = (a.clone(), model_a.clone());
            for _ in 0..rng.gen_range(0usize..60) {
                if rng.gen_bool(0.1) {
                    // a clone of a clone shares the blocks neither side wrote
                    if rng.gen_bool(0.5) {
                        (b, model_b) = (a.clone(), model_a.clone());
                    } else {
                        (a, model_a) = (b.clone(), model_b.clone());
                    }
                    continue;
                }
                let (db, model) = if rng.gen_bool(0.5) {
                    (&mut a, &mut model_a)
                } else {
                    (&mut b, &mut model_b)
                };
                if model.is_empty() || rng.gen_bool(0.25) {
                    let row = fresh_row(&mut rng, &mut cell);
                    prop_assert_eq!(db.push_row(row.clone()), Ok(model.len()));
                    model.push(row);
                } else {
                    let n = model.len();
                    let edge = BLOCK_ROWS * rng.gen_range(1usize..=3);
                    let r = match rng.gen_range(0u32..3) {
                        0 => edge.saturating_sub(1).min(n - 1),
                        1 => edge.min(n - 1),
                        _ => rng.gen_range(0..n),
                    };
                    let c = rng.gen_range(0..width);
                    cell += 1;
                    db.set_cell(r, c, Value::Int(-cell)).unwrap();
                    model[r][c] = Value::Int(-cell);
                }
            }
            for (db, model) in [(&a, &model_a), (&b, &model_b)] {
                prop_assert_eq!(db.len(), model.len());
                prop_assert!(db.iter_rows().eq(model.iter().map(Vec::as_slice)));
            }
            let unshared: Vec<Range<usize>> = a.unshared_rows(&b).collect();
            for (r, row) in model_a.iter().enumerate() {
                if model_b.get(r) != Some(row) {
                    prop_assert!(unshared.iter().any(|u| u.contains(&r)), "row {} differs", r);
                }
            }
        }
    }

    #[test]
    fn clones_share_blocks_until_written() {
        let n = 3 * BLOCK_ROWS;
        let mut input = MicrodataDb::new("t", ["i"]).unwrap();
        for i in 0..n as i64 {
            input.push_row(vec![Value::Int(i)]).unwrap();
        }
        let mut work = input.clone();
        assert_eq!(work.unshared_rows(&input).count(), 0);
        work.set_cell(BLOCK_ROWS, 0, Value::Null(0)).unwrap();
        work.set_cell(BLOCK_ROWS + 1, 0, Value::Null(1)).unwrap();
        let unshared: Vec<_> = work.unshared_rows(&input).collect();
        assert_eq!(unshared, vec![BLOCK_ROWS..2 * BLOCK_ROWS]);
        assert_eq!(input.unshared_rows(&work).collect::<Vec<_>>(), unshared);
        assert_eq!(
            input.value(BLOCK_ROWS, "i").unwrap(),
            &Value::Int(BLOCK_ROWS as i64)
        );
        // a table built apart shares nothing, and a longer one's extra
        // rows are never shared
        let mut apart = MicrodataDb::new("t", ["i"]).unwrap();
        for row in input.iter_rows() {
            apart.push_row(row.to_vec()).unwrap();
        }
        assert_eq!(apart.unshared_rows(&input).count(), 3);
        work.push_row(vec![Value::Int(-1)]).unwrap();
        assert_eq!(
            work.unshared_rows(&input).last(),
            Some(n..n + 1),
            "the appended row"
        );
    }

    #[test]
    fn projection_and_numeric_column() {
        let db = sample();
        let proj = db.project(&["area".to_string(), "id".to_string()]).unwrap();
        assert_eq!(proj.len(), 2);
        assert_eq!(proj.width(), 2);
        assert_eq!(proj.row(1), vec![&Value::str("South"), &Value::Int(2)]);
        assert_eq!(proj.value(0, 0), &Value::str("North"));
        assert_eq!(db.positions(&["w".to_string()]).unwrap(), vec![2]);
        assert_eq!(db.numeric_column("w").unwrap(), vec![10.0, 20.0]);
        assert!(db.numeric_column("area").is_err());
    }
}
