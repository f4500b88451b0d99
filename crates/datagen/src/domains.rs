//! Attribute domains of the Inflation & Growth survey schema (Figure 1).
//!
//! The synthetic generator reuses the paper's survey vocabulary: geographic
//! areas, product sectors, employee bands and revenue bands, extended with
//! additional banded attributes (legal form, firm age, size class, export
//! destination) so that catalogue entries with up to 9 quasi-identifiers
//! (R50A9W) can be produced.

/// Geographic areas (quasi-identifier `Area`).
pub const AREAS: &[&str] = &["North", "Center", "South"];

/// Product sectors (quasi-identifier `Sector`).
pub const SECTORS: &[&str] = &[
    "Public Service",
    "Commerce",
    "Textiles",
    "Construction",
    "Financial",
    "Agriculture",
    "Energy",
    "Transport",
    "Tourism",
    "Other",
];

/// Employee count bands (quasi-identifier `Employees`).
pub const EMPLOYEES: &[&str] = &["0-49", "50-200", "201-1000", "1000+"];

/// Percentage bands used for revenue shares (`Residential Rev.`,
/// `Export Rev.`, `Exp. to DE`).
pub const REV_BANDS: &[&str] = &["0-30", "30-60", "60-90", "90+"];

/// Legal forms (extra quasi-identifier for wide schemas).
pub const LEGAL_FORMS: &[&str] = &["SpA", "Srl", "Sas", "Snc", "Coop", "Branch"];

/// Firm age bands (extra quasi-identifier).
pub const AGE_BANDS: &[&str] = &["0-5", "6-15", "16-30", "31-60", "60+"];

/// Balance-sheet size classes (extra quasi-identifier).
pub const SIZE_BANDS: &[&str] = &["micro", "small", "medium", "large", "very-large"];

/// The quasi-identifier columns available to the generator, in the order
/// they are enabled as the requested QI count grows (4 → 9).
pub const QI_COLUMNS: &[(&str, &[&str])] = &[
    ("Area", AREAS),
    ("Sector", SECTORS),
    ("Employees", EMPLOYEES),
    ("ResidentialRev", REV_BANDS),
    ("ExportRev", REV_BANDS),
    ("ExportToDE", REV_BANDS),
    ("LegalForm", LEGAL_FORMS),
    ("AgeBand", AGE_BANDS),
    ("SizeBand", SIZE_BANDS),
];

/// Maximum number of quasi-identifiers the generator supports.
pub const MAX_QI: usize = QI_COLUMNS.len();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_qi_columns_available() {
        assert_eq!(MAX_QI, 9);
        // all domains non-trivial
        for (name, domain) in QI_COLUMNS {
            assert!(domain.len() >= 3, "{name} domain too small");
        }
    }

    #[test]
    fn domains_have_no_duplicates() {
        for (name, domain) in QI_COLUMNS {
            let set: std::collections::HashSet<_> = domain.iter().collect();
            assert_eq!(set.len(), domain.len(), "{name} has duplicate values");
        }
    }
}
