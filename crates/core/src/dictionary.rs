//! The metadata dictionary (paper §4.1, Figure 4).
//!
//! Vada-SA achieves schema independence by reasoning over *metadata facts*
//! — `MicroDB(name)`, `Att(microDB, name, description)`,
//! `Category(microDB, att, cat)` — rather than over the concrete schema of
//! each microdata DB. The dictionary is the in-memory form of those facts;
//! [`crate::programs`] round-trips it to engine facts for the declarative
//! encodings.

use std::collections::HashMap;
use std::fmt;

/// The category assigned to a microdata attribute (paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Direct identifier: a single value discloses the respondent.
    Identifier,
    /// Quasi-identifier: combinations of values are disclosive.
    QuasiIdentifier,
    /// Not disclosive, alone or in combination.
    NonIdentifying,
    /// A sensitive attribute: not linkable itself, but the secret an
    /// attacker is after. Dictionaries record it; no risk measure of this
    /// crate reads it.
    Sensitive,
    /// The sampling weight column.
    Weight,
}

impl Category {
    /// Stable textual name used in dictionary facts.
    pub fn name(&self) -> &'static str {
        match self {
            Category::Identifier => "identifier",
            Category::QuasiIdentifier => "quasi-identifier",
            Category::NonIdentifying => "non-identifying",
            Category::Sensitive => "sensitive",
            Category::Weight => "weight",
        }
    }

    /// Parse from the textual name.
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "identifier" => Category::Identifier,
            "quasi-identifier" => Category::QuasiIdentifier,
            "non-identifying" => Category::NonIdentifying,
            "sensitive" => Category::Sensitive,
            "weight" => Category::Weight,
            _ => return None,
        })
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Metadata about one attribute of one microdata DB.
#[derive(Debug, Clone, Default)]
pub struct AttrMeta {
    /// Human-oriented description (Figure 4 "Description" column).
    pub description: String,
    /// Assigned category, if categorization has run.
    pub category: Option<Category>,
}

/// The dictionary: registered microdata DBs, their attributes, and the
/// categories inferred for them.
#[derive(Debug, Clone, Default)]
pub struct MetadataDictionary {
    /// microdata DB name → attribute name (in registration order) → meta.
    dbs: HashMap<String, Vec<(String, AttrMeta)>>,
}

/// Dictionary lookup failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DictionaryError {
    /// The microdata DB is not registered.
    UnknownDb(String),
    /// The attribute is not registered for that DB.
    UnknownAttribute {
        /// Microdata DB name.
        db: String,
        /// Attribute name.
        attr: String,
    },
    /// No weight column has been categorized for that DB.
    NoWeight(String),
}

impl fmt::Display for DictionaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DictionaryError::UnknownDb(d) => write!(f, "unknown microdata DB '{d}'"),
            DictionaryError::UnknownAttribute { db, attr } => {
                write!(f, "unknown attribute '{attr}' of microdata DB '{db}'")
            }
            DictionaryError::NoWeight(d) => {
                write!(f, "no weight attribute categorized for microdata DB '{d}'")
            }
        }
    }
}

impl std::error::Error for DictionaryError {}

impl MetadataDictionary {
    /// Empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an attribute with a description.
    pub fn register_attr(
        &mut self,
        db: impl Into<String>,
        attr: impl Into<String>,
        description: impl Into<String>,
    ) {
        let db = db.into();
        let attr = attr.into();
        let entry = self.dbs.entry(db).or_default();
        if let Some((_, meta)) = entry.iter_mut().find(|(a, _)| *a == attr) {
            meta.description = description.into();
        } else {
            entry.push((
                attr,
                AttrMeta {
                    description: description.into(),
                    category: None,
                },
            ));
        }
    }

    /// Assign a category to an attribute.
    pub fn set_category(
        &mut self,
        db: &str,
        attr: &str,
        cat: Category,
    ) -> Result<(), DictionaryError> {
        let entry = self
            .dbs
            .get_mut(db)
            .ok_or_else(|| DictionaryError::UnknownDb(db.to_string()))?;
        let slot = entry.iter_mut().find(|(a, _)| a == attr).ok_or_else(|| {
            DictionaryError::UnknownAttribute {
                db: db.to_string(),
                attr: attr.to_string(),
            }
        })?;
        slot.1.category = Some(cat);
        Ok(())
    }

    /// Attributes (with metadata) of a microdata DB, in registration order.
    pub fn attrs(&self, db: &str) -> Result<&[(String, AttrMeta)], DictionaryError> {
        self.dbs
            .get(db)
            .map(|v| v.as_slice())
            .ok_or_else(|| DictionaryError::UnknownDb(db.to_string()))
    }

    /// Category of one attribute (None if not yet categorized).
    pub fn category(&self, db: &str, attr: &str) -> Result<Option<Category>, DictionaryError> {
        let attrs = self.attrs(db)?;
        attrs
            .iter()
            .find(|(a, _)| a == attr)
            .map(|(_, m)| m.category)
            .ok_or_else(|| DictionaryError::UnknownAttribute {
                db: db.to_string(),
                attr: attr.to_string(),
            })
    }

    /// Names of attributes with the given category.
    pub fn attrs_with_category(
        &self,
        db: &str,
        cat: Category,
    ) -> Result<Vec<String>, DictionaryError> {
        Ok(self
            .attrs(db)?
            .iter()
            .filter(|(_, m)| m.category == Some(cat))
            .map(|(a, _)| a.clone())
            .collect())
    }

    /// Quasi-identifier attribute names of a DB.
    pub fn quasi_identifiers(&self, db: &str) -> Result<Vec<String>, DictionaryError> {
        self.attrs_with_category(db, Category::QuasiIdentifier)
    }

    /// Direct identifier attribute names of a DB.
    pub fn identifiers(&self, db: &str) -> Result<Vec<String>, DictionaryError> {
        self.attrs_with_category(db, Category::Identifier)
    }

    /// The (single) weight attribute of a DB.
    pub fn weight_attr(&self, db: &str) -> Result<String, DictionaryError> {
        self.attrs_with_category(db, Category::Weight)?
            .into_iter()
            .next()
            .ok_or_else(|| DictionaryError::NoWeight(db.to_string()))
    }

    /// Are all attributes of the DB categorized?
    pub fn fully_categorized(&self, db: &str) -> Result<bool, DictionaryError> {
        Ok(self.attrs(db)?.iter().all(|(_, m)| m.category.is_some()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetadataDictionary {
        let mut d = MetadataDictionary::new();
        d.register_attr("I&G", "Id", "Company Identifier");
        d.register_attr("I&G", "Area", "Geographic Area");
        d.register_attr("I&G", "Weight", "Sampling Weight");
        d.set_category("I&G", "Id", Category::Identifier).unwrap();
        d.set_category("I&G", "Area", Category::QuasiIdentifier)
            .unwrap();
        d.set_category("I&G", "Weight", Category::Weight).unwrap();
        d
    }

    #[test]
    fn category_roundtrip() {
        for c in [
            Category::Identifier,
            Category::QuasiIdentifier,
            Category::NonIdentifying,
            Category::Sensitive,
            Category::Weight,
        ] {
            assert_eq!(Category::from_name(c.name()), Some(c));
        }
        assert_eq!(Category::from_name("nope"), None);
    }

    #[test]
    fn registration_and_lookup() {
        let d = sample();
        assert_eq!(d.quasi_identifiers("I&G").unwrap(), vec!["Area"]);
        assert_eq!(d.identifiers("I&G").unwrap(), vec!["Id"]);
        assert_eq!(d.weight_attr("I&G").unwrap(), "Weight");
        assert!(d.fully_categorized("I&G").unwrap());
    }

    #[test]
    fn unknown_db_and_attr_errors() {
        let d = sample();
        assert!(matches!(d.attrs("zz"), Err(DictionaryError::UnknownDb(_))));
        assert!(matches!(
            d.category("I&G", "zz"),
            Err(DictionaryError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn missing_weight_is_reported() {
        let mut d = MetadataDictionary::new();
        d.register_attr("m", "a", "");
        assert!(matches!(
            d.weight_attr("m"),
            Err(DictionaryError::NoWeight(_))
        ));
    }

    #[test]
    fn re_registration_updates_description() {
        let mut d = sample();
        d.register_attr("I&G", "Area", "Region of operation");
        let attrs = d.attrs("I&G").unwrap();
        let area = attrs.iter().find(|(a, _)| a == "Area").unwrap();
        assert_eq!(area.1.description, "Region of operation");
        // category preserved
        assert_eq!(area.1.category, Some(Category::QuasiIdentifier));
    }

    #[test]
    fn uncategorized_detected() {
        let mut d = sample();
        d.register_attr("I&G", "Sector", "Product Sector");
        assert!(!d.fully_categorized("I&G").unwrap());
    }
}
