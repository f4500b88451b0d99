//! Global recoding over a domain hierarchy (paper Algorithm 8).
//!
//! Besides suppression, disclosure risk can be controlled by *coarsening*
//! values using domain knowledge stored in the KB:
//!
//! ```text
//! Att(I&G, Area).  TypeOf(Area, City).  SubTypeOf(City, Region).
//! InstOf(Milano, City).  InstOf(North, Region).  IsA(Milano, North).
//! ```
//!
//! For a risky tuple, a quasi-identifier's value is replaced by its parent
//! in the hierarchy — `Milano → North` — and, because the recoding is
//! *global*, every other occurrence of the value in the column is rewritten
//! too (Figure 5b: both `Milano` and `Torino` become `North`, merging
//! tuples 6 and 7 into one equivalence class). Recoding is inherently
//! recursive: several roll-ups may be needed before the risk drops.

use super::{candidate_attrs, AnonymizationAction, AnonymizeError, Anonymizer, AttributeOrder};
use crate::dictionary::MetadataDictionary;
use crate::model::MicrodataDb;
use crate::risk::MicrodataView;
use std::collections::HashMap;
use vadalog::Value;

/// Domain knowledge: value-level `IsA` edges plus type-level structure.
///
/// The hierarchy mirrors the paper's KB facts: `TypeOf` assigns a type to
/// an attribute, `SubTypeOf` orders types from finer to coarser, `InstOf`
/// types each value, and `IsA` links a value to its coarser parent.
#[derive(Debug, Clone, Default)]
pub struct DomainHierarchy {
    /// attribute name → its (finest) type.
    attr_type: HashMap<String, String>,
    /// finer type → coarser type (`SubTypeOf`).
    super_type: HashMap<String, String>,
    /// value → its type (`InstOf`).
    inst_of: HashMap<Value, String>,
    /// value → parent values (`IsA`); usually one parent per level.
    is_a: HashMap<Value, Vec<Value>>,
}

impl DomainHierarchy {
    /// Empty hierarchy.
    pub fn new() -> Self {
        Self::default()
    }

    /// `TypeOf(attr, ty)`.
    pub fn set_attr_type(&mut self, attr: impl Into<String>, ty: impl Into<String>) {
        self.attr_type.insert(attr.into(), ty.into());
    }

    /// `SubTypeOf(finer, coarser)`.
    pub fn set_super_type(&mut self, finer: impl Into<String>, coarser: impl Into<String>) {
        self.super_type.insert(finer.into(), coarser.into());
    }

    /// `InstOf(value, ty)`.
    pub fn set_instance(&mut self, value: Value, ty: impl Into<String>) {
        self.inst_of.insert(value, ty.into());
    }

    /// `IsA(child, parent)`.
    pub fn add_is_a(&mut self, child: Value, parent: Value) {
        self.is_a.entry(child).or_default().push(parent);
    }

    /// Register a full `child → parent` edge in one call: types the child
    /// and parent and records the `IsA` link.
    pub fn link(
        &mut self,
        child: Value,
        child_ty: impl Into<String>,
        parent: Value,
        parent_ty: impl Into<String>,
    ) {
        let child_ty = child_ty.into();
        let parent_ty = parent_ty.into();
        self.set_instance(child.clone(), child_ty.clone());
        self.set_instance(parent.clone(), parent_ty.clone());
        self.set_super_type(child_ty, parent_ty);
        self.add_is_a(child, parent);
    }

    /// Type declared for an attribute, if any.
    pub fn attr_type(&self, attr: &str) -> Option<&str> {
        self.attr_type.get(attr).map(|s| s.as_str())
    }

    /// One roll-up step per Algorithm 8: for value `v` of type `X`, return
    /// the parent `Z` with `IsA(v, Z)` and `InstOf(Z, Y)` where
    /// `SubTypeOf(X, Y)`.
    pub fn roll_up(&self, v: &Value) -> Option<Value> {
        let ty = self.inst_of.get(v)?;
        let coarser = self.super_type.get(ty)?;
        self.is_a
            .get(v)?
            .iter()
            .find(|p| self.inst_of.get(*p).map(|t| t == coarser).unwrap_or(false))
            .cloned()
    }
}

/// Global recoding anonymizer (Algorithm 8).
#[derive(Debug, Clone, Default)]
pub struct GlobalRecoding {
    /// The domain hierarchy driving roll-ups.
    pub hierarchy: DomainHierarchy,
    /// Which quasi-identifier to recode first.
    pub attr_order: AttributeOrder,
}

impl GlobalRecoding {
    /// Global recoding over the given hierarchy.
    pub fn new(hierarchy: DomainHierarchy) -> Self {
        GlobalRecoding {
            hierarchy,
            attr_order: AttributeOrder::default(),
        }
    }
}

impl Anonymizer for GlobalRecoding {
    fn name(&self) -> &str {
        "global-recoding"
    }

    fn anonymize_step_with(
        &self,
        db: &mut MicrodataDb,
        _dict: &MetadataDictionary,
        view: &MicrodataView,
        row: usize,
    ) -> Result<AnonymizationAction, AnonymizeError> {
        // Among the candidate attributes, use the first whose value can be
        // rolled up.
        for attr in candidate_attrs(db, view, row, self.attr_order)? {
            let from = db.value(row, &attr)?.clone();
            let Some(to) = self.hierarchy.roll_up(&from) else {
                continue;
            };
            // global: rewrite every occurrence in the column (indices
            // first — the borrowed column view ends before the writes)
            let rows_to_change: Vec<usize> = db
                .column(&attr)?
                .into_iter()
                .enumerate()
                .filter(|(_, v)| **v == from)
                .map(|(r, _)| r)
                .collect();
            for &r in &rows_to_change {
                db.set_value(r, &attr, to.clone())?;
            }
            return Ok(AnonymizationAction::Recode {
                attr,
                from,
                to,
                rows_affected: rows_to_change.len(),
            });
        }
        Ok(AnonymizationAction::Exhausted { row })
    }
}

/// Build the paper's Italian-geography example hierarchy (Figure 5 /
/// Algorithm 8 narrative): cities roll up to regions, regions to country.
pub fn italian_geography() -> DomainHierarchy {
    let mut h = DomainHierarchy::new();
    h.set_attr_type("Area", "City");
    for (city, region) in [
        ("Milano", "North"),
        ("Torino", "North"),
        ("Venezia", "North"),
        ("Roma", "Center"),
        ("Firenze", "Center"),
        ("Napoli", "South"),
        ("Bari", "South"),
        ("Palermo", "South"),
    ] {
        h.link(Value::str(city), "City", Value::str(region), "Region");
    }
    for region in ["North", "Center", "South"] {
        h.link(Value::str(region), "Region", Value::str("Italy"), "Country");
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::Category;

    fn fig5_db() -> (MicrodataDb, MetadataDictionary) {
        let mut db = MicrodataDb::new("fig5", ["Area", "Sector"]).unwrap();
        for (a, s) in [
            ("Milano", "Construction"),
            ("Torino", "Construction"),
            ("Roma", "Textiles"),
        ] {
            db.push_row(vec![Value::str(a), Value::str(s)]).unwrap();
        }
        let mut dict = MetadataDictionary::new();
        dict.register_attr("fig5", "Area", "");
        dict.register_attr("fig5", "Sector", "");
        dict.set_category("fig5", "Area", Category::QuasiIdentifier)
            .unwrap();
        dict.set_category("fig5", "Sector", Category::QuasiIdentifier)
            .unwrap();
        (db, dict)
    }

    #[test]
    fn roll_up_follows_type_hierarchy() {
        let h = italian_geography();
        assert_eq!(h.roll_up(&Value::str("Milano")), Some(Value::str("North")));
        assert_eq!(h.roll_up(&Value::str("North")), Some(Value::str("Italy")));
        assert_eq!(h.roll_up(&Value::str("Italy")), None);
        assert_eq!(h.roll_up(&Value::str("unknown")), None);
    }

    #[test]
    fn recoding_is_global_across_the_column() {
        let (mut db, dict) = fig5_db();
        let anon = GlobalRecoding::new(italian_geography());
        // tuple 0 (Milano) is risky; Area is recodeable
        let action = anon.anonymize_step(&mut db, &dict, 0).unwrap();
        match action {
            AnonymizationAction::Recode {
                attr,
                from,
                to,
                rows_affected,
            } => {
                assert_eq!(attr, "Area");
                assert_eq!(from, Value::str("Milano"));
                assert_eq!(to, Value::str("North"));
                assert_eq!(rows_affected, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        // a second step on tuple 1 folds Torino into North: now both match
        anon.anonymize_step(&mut db, &dict, 1).unwrap();
        assert_eq!(db.value(0, "Area").unwrap(), db.value(1, "Area").unwrap());
    }

    #[test]
    fn recursive_roll_ups_climb_to_the_root() {
        let (mut db, dict) = fig5_db();
        let anon = GlobalRecoding::new(italian_geography());
        anon.anonymize_step(&mut db, &dict, 0).unwrap(); // Milano → North
        anon.anonymize_step(&mut db, &dict, 0).unwrap(); // North → Italy
        assert_eq!(db.value(0, "Area").unwrap(), &Value::str("Italy"));
        // exhausted on Area; Sector has no hierarchy → Exhausted overall
        let a = anon.anonymize_step(&mut db, &dict, 0).unwrap();
        assert_eq!(a, AnonymizationAction::Exhausted { row: 0 });
    }

    #[test]
    fn attribute_without_hierarchy_is_skipped() {
        let (mut db, dict) = fig5_db();
        let anon = GlobalRecoding::new(italian_geography());
        // Sector is most selective for tuple 2 (Textiles, unique), but has
        // no hierarchy: the step must fall through to Area.
        let action = anon.anonymize_step(&mut db, &dict, 2).unwrap();
        assert!(matches!(
            action,
            AnonymizationAction::Recode { ref attr, .. } if attr == "Area"
        ));
    }
}
