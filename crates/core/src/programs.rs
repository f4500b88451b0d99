//! The paper's algorithm listings as executable Vadalog programs.
//!
//! Vada-SA's defining trait is that risk measures and anonymization logic
//! are *declarative*: sets of Vadalog rules over the metadata dictionary.
//! This module ships the concrete encodings of Algorithms 1 and 3–7 in the
//! syntax of the bundled [`vadalog`] engine, together with converters that
//! round-trip a [`MicrodataDb`] + [`MetadataDictionary`] to the extensional
//! facts (`val`, `cat`, `expbase`, …) the programs expect, runners that
//! extract the derived `riskOutput` facts, and [`VadalogKAnonymity`], the
//! cycle's `#risk` plug-in decided on the engine.
//!
//! The unit and integration tests prove the declarative and the native
//! implementations agree on shared fixtures — the engine-based path is the
//! reference semantics, the native path is the scalable one.
//!
//! ## Encoding notes
//!
//! * Tuples are reified per Algorithm 2 Rule 1: `val(M, I, A, V)` cells are
//!   folded into a set-valued `tuple(M, I, VSet)` fact with
//!   `VSet = munion(pair(A, V), ⟨A⟩)`.
//! * Aggregate-in-condition rules (e.g. `msum(W,⟨Z⟩) > 0.5` in the control
//!   example of §4.4) are flattened into an aggregate rule followed by a
//!   filter, which is the stratified normal form the engine accepts.
//! * Algorithm 6 Rules 3–4 as printed extend the *old* combination; the
//!   intended semantics (build a new combination `Z` = `Z1 ∪ {A}`) is what
//!   we encode: `InComb(Z, Z1), In(A, Z)` plus the copy rule
//!   `InComb(Z, Z1), In(A, Z1) → In(A, Z)`.

use crate::dictionary::{Category, MetadataDictionary};
use crate::maybe_match::NullSemantics;
use crate::model::MicrodataDb;
use crate::risk::{MicrodataView, RiskError, RiskMeasure, RiskReport};
use std::collections::HashMap;
use vadalog::{parse_program, Database, Engine, EngineError, ParseError, Value};

/// Algorithm 1 — attribute categorization by recursive experience.
///
/// Expects facts `att(M, A)`, `expbase(A1, C)` and `similar(A, A1)` (the
/// host precomputes the pluggable similarity relation) and derives
/// `cat(M, A, C)`, feeding conclusions back into `expbase`. The EGD guards
/// one-category-per-attribute; violations surface in the reasoning result.
pub const ALG1_CATEGORIZATION: &str = r#"
@label("alg1-rule2: borrow similar category")
cat(M, A, C) :- att(M, A), expbase(A1, C), similar(A, A1).
@label("alg1-rule3: consolidate experience")
expbase(A, C) :- cat(M, A, C).
@label("alg1-rule4: one category per attribute (EGD)")
C1 = C2 :- cat(M, A, C1), cat(M, A, C2).
"#;

/// Algorithm 2 Rule 1 — reify microdata cells into set-valued tuples.
///
/// `val(M, I, A, V)` cells of quasi-identifier attributes fold into
/// `tuple(M, I, VSet)`; the weight column is exported as `wgt(I, W)`.
/// Identifiers and non-identifying attributes are implicitly dropped.
pub const ALG2_TUPLE_REIFICATION: &str = r#"
@label("alg2-rule1: collect quasi-identifier pairs")
tuple(M, I, VSet) :- val(M, I, A, V), cat(M, A, "quasi-identifier"),
                     VSet = munion(pair(A, V), <A>).
@label("alg2-rule1w: export sampling weight")
wgt(I, W) :- val(M, I, A, W), cat(M, A, "weight").
"#;

/// Algorithm 3 — re-identification-based risk: `1 / msum(weights)` grouped
/// by the quasi-identifier combination.
pub const ALG3_REIDENTIFICATION: &str = r#"
@label("alg3-rule1: sum weights per combination")
tuplea(VSet, S) :- tuple(M, I, VSet), wgt(I, W), S = msum(W, <I>).
@label("alg3-rule2: risk is reciprocal group weight")
riskOutput(I, R) :- tuple(M, I, VSet), tuplea(VSet, S), R = 1.0 / S.
"#;

/// Algorithm 4 — k-anonymity (`k` is spliced into the rule text).
pub fn alg4_kanonymity(k: usize) -> String {
    format!(
        r#"
@label("alg4-rule1: count occurrences per combination")
tuplea(VSet, C) :- tuple(M, I, VSet), C = mcount(<I>).
@label("alg4-rule2: threshold against k")
riskOutput(I, R) :- tuple(M, I, VSet), tuplea(VSet, C),
                    R = case C < {k} then 1.0 else 0.0.
"#
    )
}

/// Algorithm 4 under the maybe-match semantics `=⊥` of §4.3 (`k` is
/// spliced into the rule text).
///
/// Two tuples match iff they agree wherever both hold a constant. Each
/// tuple is keyed by the set `K` of attributes where it holds one (a
/// fully suppressed tuple by the empty set), so tuples `t` and `u` match
/// iff their constant pairs projected on `K_t ∩ K_u` are equal. The
/// program never pairs tuples. It projects every tuple on every key set
/// and counts the tuples of each key set `K1` per projection on each key
/// set `K` (`mcount`). A tuple keyed by `K` then matches, among the
/// tuples keyed by `K1`, exactly those counted under its own projection
/// on `K1`, and its class size sums these counts over `K1` (`msum`).
/// That is O(rows × key sets) facts, the mask-key idea of DESIGN.md § 18.
pub fn alg4_kanonymity_maybe_match(k: usize) -> String {
    format!(
        r#"
@label("alg4mm-rule1: the constant pairs of each tuple")
cpairs(I, CSet) :- val(M, I, A, V), cat(M, A, "quasi-identifier"), not is_null(V),
                   CSet = munion(pair(A, V), <A>).
@label("alg4mm-rule2: key each tuple by its constant attributes")
tuplek(I, K, CSet) :- cpairs(I, CSet), K = keys(CSet).
@label("alg4mm-rule3: a fully suppressed tuple keys on the empty set")
hasconst(I) :- cpairs(I, CSet).
tuplek(I, E, E) :- tuple(M, I, VSet), not hasconst(I), E = {{}}.
@label("alg4mm-rule4: the key sets in use")
keyset(K) :- tuplek(I, K, CSet).
@label("alg4mm-rule5: project every tuple on every key set")
proj(K, K1, P, I) :- tuplek(I, K1, CSet), keyset(K), P = CSet[K].
@label("alg4mm-rule6: count the tuples of each key set per projection")
projcount(K, K1, P, C) :- proj(K, K1, P, I), C = mcount(<I>).
@label("alg4mm-rule7: a tuple's class size sums its matches over key sets")
freq(I, F) :- proj(K1, K, P, I), projcount(K, K1, P, C), F = msum(C, <K1>).
@label("alg4mm-rule8: threshold against k")
riskOutput(I, R) :- freq(I, F), R = case F < {k} then 1.0 else 0.0.
"#
    )
}

/// Algorithm 5 — individual risk, simple estimator `f / Σw`.
pub const ALG5_INDIVIDUAL_RISK: &str = r#"
@label("alg5-rule1: frequency and weight sum per combination")
tuplea(VSet, F, S) :- tuple(M, I, VSet), wgt(I, W),
                      F = mcount(<I>), S = msum(W, <I>).
@label("alg5-rule2: risk is f over summed weights")
riskOutput(I, R) :- tuple(M, I, VSet), tuplea(VSet, F, S), R = F / S.
"#;

/// Algorithm 6 — SUDA: enumerate quasi-identifier combinations, detect
/// sample uniques, keep the minimal ones (`k` = MSU size threshold,
/// spliced into the rule text).
///
/// The paper generates combinations with existential ids and a
/// `not In(A, Z1)` test *inside* the recursion, which needs Vadalog's
/// liberal negation. Our engine enforces stratified negation, so
/// combinations are reified as first-class **set values** instead: the
/// membership test becomes the expression condition
/// `not contains(S, A)`, which is stratification-neutral, and the
/// recursion over `comb` stays purely positive. The existential-null
/// machinery the paper showcases here is still exercised by
/// [`ALG7_LOCAL_SUPPRESSION`].
pub fn alg6_suda(k: usize) -> String {
    format!(
        r#"
@label("alg6-rule1: focus on input tuples")
tuplei(M, I, VSet) :- tuple(M, I, VSet).
@label("alg6-rule2: singleton combinations")
comb(I, S) :- tuplei(M, I, VSet), cat(M, A, "quasi-identifier"),
              A in keys(VSet), S = {{A}}.
@label("alg6-rule3: extend combinations by one attribute")
comb(I, S2) :- comb(I, S), tuplei(M, I, VSet), cat(M, A, "quasi-identifier"),
               A in keys(VSet), not contains(S, A), S2 = S union {{A}}.
@label("alg6-rule5: project tuples on each combination")
tuplec(I, PSet) :- comb(I, S), tuplei(M, I, VSet), PSet = VSet[S].
@label("alg6-rule6a: occurrences per projected combination")
sucount(PSet, C) :- tuplec(I, PSet), C = mcount(<I>).
@label("alg6-rule6b: sample uniques")
su(I, PSet) :- tuplec(I, PSet), sucount(PSet, C), C = 1.
@label("alg6-rule7a: a sample unique containing a smaller one")
smaller(I, PSet) :- su(I, PSet), su(I, PSet1), PSet1 subset PSet.
@label("alg6-rule7b: minimal sample uniques")
msu(I, PSet) :- su(I, PSet), not smaller(I, PSet).
@label("alg6-rule8: small MSUs are dangerous")
msurisk(I, R) :- msu(I, PSet), R = case size(PSet) < {k} then 1.0 else 0.0.
@label("alg6-rule8b: tuple risk is the max over its MSUs")
riskOutput(I, R) :- msurisk(I, R1), R = mmax(R1, <R1>).
@label("alg6-rule8c: tuples with no MSU are safe")
anymsu(I) :- msu(I, PSet).
riskOutput(I, 0.0) :- tuplei(M, I, VSet), not anymsu(I).
"#
    )
}

/// Algorithm 7 — local suppression: a fresh labelled null replaces one
/// quasi-identifier of each tuple flagged by `anonymize(I)`; the host picks
/// the attribute through `suppressattr(I, A)` (the §4.4 "most risky first"
/// routing decision).
pub const ALG7_LOCAL_SUPPRESSION: &str = r#"
@label("alg7-mint: invent a labelled null per flagged tuple")
supp(I, A, Z) :- anonymize(I), suppressattr(I, A).
@label("alg7-rewrite: splice the null into the tuple")
tuple(M, I, NewSet) :- supp(I, A, Z), tuple(M, I, VSet),
                       NewSet = setminus(VSet, VSet[{A}]) union {pair(A, Z)}.
"#;

/// §4.4 — company control closure, flattened to stratified normal form:
/// `relw` materializes candidate (controller, target, intermediary,
/// fraction) quadruples, then a monotonic sum per intermediary decides
/// control. Expects `own(X, Y, W)` facts plus any already-known `rel`
/// control links; derives `ctrl(X, Y)`.
///
/// The paper's Rule 2 recurses *through* the aggregate
/// (`rel(X,Z), Own(Z,Y,W), msum(W,⟨Z⟩) > 0.5 → rel(X,Y)`), which Vadalog's
/// monotonic aggregation supports natively but a stratified engine cannot
/// evaluate in one pass. [`run_control_program`] therefore iterates the
/// program to a host-level fixpoint, feeding each round's `ctrl` facts
/// back as `rel` — the same outer-loop style the anonymization cycle uses
/// for its `#risk`/`#anonymize` plug-ins.
pub const BUSINESS_CONTROL: &str = r#"
@label("control-direct: majority shareholding")
rel(X, Y) :- own(X, Y, W), W > 0.5.
@label("control-carry: holdings of controlled companies")
relw(X, Y, Z, W) :- rel(X, Z), own(Z, Y, W).
@label("control-own: direct holdings")
relw(X, Y, X, W) :- own(X, Y, W).
@label("control-sum: joint majority")
ctrl(X, Y) :- relw(X, Y, Z, W), S = msum(W, <Z>), S > 0.5, X != Y.
"#;

/// Errors from running a declarative program.
#[derive(Debug)]
pub enum ProgramError {
    /// The program text failed to parse.
    Parse(ParseError),
    /// The engine rejected or failed the program.
    Engine(EngineError),
    /// The microdata/dictionary could not be converted to facts.
    Conversion(String),
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::Parse(e) => write!(f, "{e}"),
            ProgramError::Engine(e) => write!(f, "{e}"),
            ProgramError::Conversion(m) => write!(f, "conversion error: {m}"),
        }
    }
}

impl std::error::Error for ProgramError {}

impl From<ParseError> for ProgramError {
    fn from(e: ParseError) -> Self {
        ProgramError::Parse(e)
    }
}
impl From<EngineError> for ProgramError {
    fn from(e: EngineError) -> Self {
        ProgramError::Engine(e)
    }
}

/// Convert a microdata DB plus its dictionary into the extensional facts
/// the programs expect: `microdb(M)`, `att(M, A)`, `cat(M, A, C)` and
/// `val(M, I, A, V)` (one fact per cell; `I` is the 0-based row index).
pub fn microdata_to_facts(
    db: &MicrodataDb,
    dict: &MetadataDictionary,
) -> Result<Database, ProgramError> {
    let mut out = Database::new();
    let m = Value::str(&db.name);
    out.insert("microdb", vec![m.clone()]);
    let attrs = dict
        .attrs(&db.name)
        .map_err(|e| ProgramError::Conversion(e.to_string()))?
        .to_vec();
    for (attr, meta) in &attrs {
        out.insert("att", vec![m.clone(), Value::str(attr)]);
        if let Some(cat) = meta.category {
            out.insert(
                "cat",
                vec![m.clone(), Value::str(attr), Value::str(cat.name())],
            );
        }
    }
    for (i, row) in db.iter_rows().enumerate() {
        for (attr, cell) in db.attributes().iter().zip(row.iter()) {
            out.insert(
                "val",
                vec![
                    m.clone(),
                    Value::Int(i as i64),
                    Value::str(attr),
                    cell.clone(),
                ],
            );
        }
    }
    Ok(out)
}

/// Run a risk program (one of Algorithms 3–6 on top of the Algorithm 2
/// reification) and return the per-row risks in row order. Rows with no
/// derived `riskOutput` fact default to 0.
pub fn run_risk_program(
    risk_rules: &str,
    db: &MicrodataDb,
    dict: &MetadataDictionary,
) -> Result<Vec<f64>, ProgramError> {
    let result = run_alg2(risk_rules, microdata_to_facts(db, dict)?)?;
    let mut risks = vec![0.0f64; db.len()];
    for row in result.rows("riskOutput") {
        // several riskOutput facts may exist (e.g. SUDA before the mmax
        // fold); keep the maximum
        if let [Value::Int(i), r] = row.as_slice() {
            if let (Some(slot), Some(x)) = (risks.get_mut(*i as usize), r.as_f64()) {
                *slot = slot.max(x);
            }
        }
    }
    Ok(risks)
}

/// Run the Algorithm 1 categorization program. `similar` pairs are
/// precomputed by the host with the given similarity threshold using the
/// default similarity stack. Returns the inferred categories and the
/// number of EGD violations (conflicting experience).
pub fn run_categorization_program(
    dict: &MetadataDictionary,
    db_name: &str,
    experience: &crate::categorize::ExperienceBase,
    threshold: f64,
) -> Result<(HashMap<String, Category>, usize), ProgramError> {
    use crate::categorize::{LevenshteinSimilarity, NormalizedMatch, Similarity, TokenJaccard};
    let sims: Vec<Box<dyn Similarity>> = vec![
        Box::new(NormalizedMatch),
        Box::new(LevenshteinSimilarity),
        Box::new(TokenJaccard),
    ];

    let program = parse_program(ALG1_CATEGORIZATION)?;
    let mut facts = Database::new();
    let m = Value::str(db_name);
    let attrs = dict
        .attrs(db_name)
        .map_err(|e| ProgramError::Conversion(e.to_string()))?;
    for (attr, _) in attrs {
        facts.insert("att", vec![m.clone(), Value::str(attr)]);
        for (exp_attr, _) in experience.entries() {
            let score = sims
                .iter()
                .map(|s| s.score(attr, exp_attr))
                .fold(0.0, f64::max);
            if score >= threshold {
                facts.insert("similar", vec![Value::str(attr), Value::str(exp_attr)]);
            }
        }
    }
    for (exp_attr, exp_cat) in experience.entries() {
        facts.insert(
            "expbase",
            vec![Value::str(exp_attr), Value::str(exp_cat.name())],
        );
    }

    let result = Engine::new().run(&program, facts)?;
    let mut categories = HashMap::new();
    for row in result.db.rows("cat") {
        let (Some(mv), Some(a), Some(c)) = (row.first(), row.get(1), row.get(2)) else {
            continue;
        };
        if *mv != m {
            continue;
        }
        if let (Some(a), Some(c)) = (a.as_str(), c.as_str()) {
            if let Some(cat) = Category::from_name(c) {
                categories.insert(a.to_string(), cat);
            }
        }
    }
    Ok((categories, result.violations.len()))
}

/// Run the §4.4 control-closure program over `own(X, Y, W)` edges and
/// return the derived `ctrl(X, Y)` pairs.
pub fn run_control_program(
    edges: &[(Value, Value, f64)],
) -> Result<Vec<(Value, Value)>, ProgramError> {
    let program = parse_program(BUSINESS_CONTROL)?;
    let mut known: std::collections::BTreeSet<(Value, Value)> = std::collections::BTreeSet::new();
    // Host-level fixpoint around the stratified program: gaining control of
    // a company adds its holdings to the controller's aggregate, so the
    // derived ctrl facts are fed back as rel inputs until nothing new
    // appears. Each round grows `known`, so this terminates in at most
    // |entities|² rounds.
    loop {
        let mut facts = Database::new();
        for (x, y, w) in edges {
            facts.insert("own", vec![x.clone(), y.clone(), Value::Float(*w)]);
        }
        for (x, y) in &known {
            facts.insert("rel", vec![x.clone(), y.clone()]);
        }
        let result = Engine::new().run(&program, facts)?;
        let mut grew = false;
        for mut row in result.db.rows("ctrl") {
            if row.len() == 2 {
                let y = row.pop().expect("arity 2");
                let x = row.pop().expect("arity 2");
                grew |= known.insert((x, y));
            }
        }
        if !grew {
            return Ok(known.into_iter().collect());
        }
    }
}

/// `view` as the extensional facts Algorithm 2 Rule 1 reads:
/// `cat(M, A, "quasi-identifier")` per column and `val(M, I, A, V)` per
/// cell, with `I` the view row.
fn view_facts(view: &MicrodataView) -> Database {
    let (m, qi) = (Value::str("view"), Value::str("quasi-identifier"));
    let attrs: Vec<Value> = view.qi_names.iter().map(Value::str).collect();
    let mut facts = Database::new();
    for a in &attrs {
        facts.insert("cat", vec![m.clone(), a.clone(), qi.clone()]);
    }
    for i in 0..view.len() {
        for (c, a) in attrs.iter().enumerate() {
            let cell = view.value(i, c).clone();
            facts.insert(
                "val",
                vec![m.clone(), Value::Int(i as i64), a.clone(), cell],
            );
        }
    }
    facts
}

/// Parse `rules` behind Algorithm 2 Rule 1 and run them over `facts`.
fn run_alg2(rules: &str, facts: Database) -> Result<Database, ProgramError> {
    let program = parse_program(&format!("{ALG2_TUPLE_REIFICATION}{rules}"))?;
    Ok(Engine::new().run(&program, facts)?.db)
}

/// k-anonymity decided on the engine: the `#risk` plug-in of Algorithm 2.
///
/// Each evaluation turns the view into `cat`/`val` facts, runs Algorithm 2
/// Rule 1 and a k-anonymity program, and reads `riskOutput(I, R)` and the
/// class size `freq(I, F)`. The program is [`alg4_kanonymity`] as printed
/// under [`NullSemantics::Standard`] (its `VSet` grouping compares nulls
/// by label) and [`alg4_kanonymity_maybe_match`] under
/// [`NullSemantics::MaybeMatch`]. The host decides nothing: without a
/// single-tuple or group-statistics hook, the cycle scores every iteration
/// in full and rechecks no target within one. The programs sum no
/// weights, so every `weight_sum` of the report is 0.
#[derive(Debug, Clone, Copy)]
pub struct VadalogKAnonymity {
    /// Minimum acceptable equivalence-class size.
    pub k: usize,
}

impl VadalogKAnonymity {
    /// Engine k-anonymity with the given `k` (clamped to at least 1, as
    /// [`KAnonymity::new`](crate::risk::KAnonymity::new) does).
    pub fn new(k: usize) -> Self {
        VadalogKAnonymity { k: k.max(1) }
    }
}

impl RiskMeasure for VadalogKAnonymity {
    fn name(&self) -> &str {
        "vadalog-k-anonymity"
    }

    fn evaluate(&self, view: &MicrodataView) -> Result<RiskReport, RiskError> {
        let rules = match view.semantics {
            // as printed, plus the class size `alg4_kanonymity_maybe_match` derives
            NullSemantics::Standard => format!(
                "{}freq(I, C) :- tuple(M, I, VSet), tuplea(VSet, C).\n",
                alg4_kanonymity(self.k)
            ),
            NullSemantics::MaybeMatch => alg4_kanonymity_maybe_match(self.k),
        };
        let db = run_alg2(&rules, view_facts(view))
            .map_err(|e| RiskError::View(format!("k-anonymity program: {e}")))?;
        // the second argument of `pred`'s facts, by the row in the first
        let by_row = |pred: &str| {
            let mut out = vec![None; view.len()];
            for fact in db.rows(pred) {
                if let [Value::Int(i), v] = fact.as_slice() {
                    if let Some(slot) = out.get_mut(*i as usize) {
                        *slot = Some(v.clone());
                    }
                }
            }
            out
        };
        let mut report = RiskReport::new(self.name());
        for (i, (r, f)) in by_row("riskOutput")
            .into_iter()
            .zip(by_row("freq"))
            .enumerate()
        {
            let (Some(r), Some(Value::Int(f))) = (r.and_then(|r| r.as_f64()), f) else {
                return Err(RiskError::View(format!("no risk derived for row {i}")));
            };
            report.push(
                r,
                f as usize,
                0.0,
                format!("class size {f} vs k={}", self.k),
            );
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::Category;
    use crate::maybe_match::NullSemantics;
    use crate::risk::{
        IndividualRisk, IrEstimator, KAnonymity, MicrodataView, ReIdentification, RiskMeasure, Suda,
    };

    /// Figure-5a-shaped fixture with weights.
    fn fig5() -> (MicrodataDb, MetadataDictionary) {
        let mut db = MicrodataDb::new("fig5", ["Id", "Area", "Sector", "W"]).unwrap();
        let rows = [
            ("t1", "Roma", "Textiles", 10),
            ("t2", "Roma", "Commerce", 20),
            ("t3", "Roma", "Commerce", 20),
            ("t4", "Milano", "Financial", 30),
            ("t5", "Milano", "Financial", 30),
        ];
        for (id, a, s, w) in rows {
            db.push_row(vec![
                Value::str(id),
                Value::str(a),
                Value::str(s),
                Value::Int(w),
            ])
            .unwrap();
        }
        let mut dict = MetadataDictionary::new();
        for a in ["Id", "Area", "Sector", "W"] {
            dict.register_attr("fig5", a, "");
        }
        dict.set_category("fig5", "Id", Category::Identifier)
            .unwrap();
        dict.set_category("fig5", "Area", Category::QuasiIdentifier)
            .unwrap();
        dict.set_category("fig5", "Sector", Category::QuasiIdentifier)
            .unwrap();
        dict.set_category("fig5", "W", Category::Weight).unwrap();
        (db, dict)
    }

    fn native_view(db: &MicrodataDb, dict: &MetadataDictionary) -> MicrodataView {
        MicrodataView::from_db_with(db, dict, NullSemantics::Standard, None).unwrap()
    }

    #[test]
    fn declarative_reidentification_matches_native() {
        let (db, dict) = fig5();
        let declarative = run_risk_program(ALG3_REIDENTIFICATION, &db, &dict).unwrap();
        let native = ReIdentification.evaluate(&native_view(&db, &dict)).unwrap();
        for (d, n) in declarative.iter().zip(native.risks.iter()) {
            assert!((d - n).abs() < 1e-9, "declarative {d} vs native {n}");
        }
        assert!((declarative[0] - 0.1).abs() < 1e-9); // 1/10
        assert!((declarative[1] - 1.0 / 40.0).abs() < 1e-9);
    }

    #[test]
    fn declarative_individual_risk_matches_native_simple() {
        let (db, dict) = fig5();
        let declarative = run_risk_program(ALG5_INDIVIDUAL_RISK, &db, &dict).unwrap();
        let native = IndividualRisk::new(IrEstimator::Simple)
            .evaluate(&native_view(&db, &dict))
            .unwrap();
        for (d, n) in declarative.iter().zip(native.risks.iter()) {
            assert!((d - n).abs() < 1e-9, "declarative {d} vs native {n}");
        }
    }

    #[test]
    fn declarative_suda_matches_native() {
        let (db, dict) = fig5();
        let declarative = run_risk_program(&alg6_suda(3), &db, &dict).unwrap();
        let native = Suda::new(3).evaluate(&native_view(&db, &dict)).unwrap();
        for (i, (d, n)) in declarative.iter().zip(native.risks.iter()).enumerate() {
            assert!(
                (d - n).abs() < 1e-9,
                "row {i}: declarative {d} vs native {n}"
            );
        }
    }

    #[test]
    fn declarative_categorization_borrows_categories() {
        let mut dict = MetadataDictionary::new();
        for a in ["Id", "Area", "Sector", "Weight"] {
            dict.register_attr("I&G", a, "");
        }
        let experience = crate::categorize::ExperienceBase::financial_defaults();
        let (cats, violations) =
            run_categorization_program(&dict, "I&G", &experience, 0.8).unwrap();
        assert_eq!(cats.get("Id"), Some(&Category::Identifier));
        assert_eq!(cats.get("Area"), Some(&Category::QuasiIdentifier));
        assert_eq!(cats.get("Weight"), Some(&Category::Weight));
        assert_eq!(violations, 0);
    }

    #[test]
    fn declarative_control_closure_matches_native() {
        use crate::business::OwnershipGraph;
        let edges = vec![
            (Value::str("a"), Value::str("b"), 0.6),
            (Value::str("a"), Value::str("c"), 0.3),
            (Value::str("b"), Value::str("c"), 0.3),
            (Value::str("x"), Value::str("y"), 0.2),
        ];
        let declarative = run_control_program(&edges).unwrap();
        let mut g = OwnershipGraph::new();
        for (x, y, w) in &edges {
            g.add_edge(x.clone(), y.clone(), *w);
        }
        let native = g.control_closure();
        let declarative_set: std::collections::HashSet<(Value, Value)> =
            declarative.into_iter().collect();
        assert_eq!(declarative_set, native);
        assert!(declarative_set.contains(&(Value::str("a"), Value::str("c"))));
    }

    /// Figure 5 with labelled nulls: row 0 lost its Sector, row 3 is fully
    /// suppressed, and row 4 holds the same null label as row 0.
    fn fig5_with_nulls() -> (MicrodataDb, MetadataDictionary) {
        let (mut db, dict) = fig5();
        let shared = db.fresh_null();
        db.set_value(0, "Sector", shared.clone()).unwrap();
        db.set_value(4, "Sector", shared).unwrap();
        for attr in ["Area", "Sector"] {
            let n = db.fresh_null();
            db.set_value(3, attr, n).unwrap();
        }
        (db, dict)
    }

    #[test]
    fn vadalog_kanonymity_matches_native_bit_for_bit() {
        for sem in [NullSemantics::MaybeMatch, NullSemantics::Standard] {
            for (t, (db, dict)) in [fig5(), fig5_with_nulls()].iter().enumerate() {
                let view = &MicrodataView::from_db_with(db, dict, sem, None).unwrap();
                for k in [2, 3, 5] {
                    let engine = VadalogKAnonymity::new(k).evaluate(view).unwrap();
                    let native = KAnonymity::new(k).evaluate(view).unwrap();
                    // the two formats agree, so notes compare as text
                    let bits = |r: &RiskReport| {
                        (r.risks.iter().zip(&r.details).enumerate())
                            .map(|(i, (x, d))| (x.to_bits(), d.frequency, r.note(i).to_string()))
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(bits(&engine), bits(&native), "view {t}, {sem:?}, k = {k}");
                }
            }
        }
        // the fully suppressed row maybe-matches all five rows
        let (db, dict) = fig5_with_nulls();
        let view = MicrodataView::from_db(&db, &dict).unwrap();
        let report = VadalogKAnonymity::new(2).evaluate(&view).unwrap();
        assert_eq!(report.details[3].frequency, 5);
    }

    #[test]
    fn suppression_program_splices_null() {
        // reify, flag tuple 0, suppress its Sector
        let (db, dict) = fig5();
        let mut facts = microdata_to_facts(&db, &dict).unwrap();
        facts.insert("anonymize", vec![Value::Int(0)]);
        facts.insert("suppressattr", vec![Value::Int(0), Value::str("Sector")]);
        let result = run_alg2(ALG7_LOCAL_SUPPRESSION, facts).unwrap();
        // tuple 0 now has two versions: original and suppressed
        let versions: Vec<Vec<Value>> = result
            .rows("tuple")
            .into_iter()
            .filter(|r| r[1] == Value::Int(0))
            .collect();
        assert_eq!(versions.len(), 2);
        let sector_nulled = |p: &Value| matches!(p.as_tuple(), Some([a, v]) if *a == Value::str("Sector") && v.is_null());
        assert!(versions
            .iter()
            .any(|v| v[2].as_set().is_some_and(|s| s.iter().any(sector_nulled))));
    }
}
