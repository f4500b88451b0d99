//! The paper's algorithm listings as executable Vadalog programs.
//!
//! Vada-SA's defining trait is that risk measures and anonymization logic
//! are *declarative*: sets of Vadalog rules over the metadata dictionary.
//! This module ships the concrete encodings of Algorithms 1 and 3–7 in the
//! syntax of the bundled [`vadalog`] engine, together with converters that
//! round-trip a [`MicrodataDb`] + [`MetadataDictionary`] to the extensional
//! facts (`val`, `cat`, `expbase`, …) the programs expect, and runners that
//! extract the derived `riskOutput` facts.
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
use crate::model::MicrodataDb;
use std::collections::HashMap;
use vadalog::{parse_program, Database, Engine, EngineError, ParseError, Program, Value};

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
    let mut source = String::from(ALG2_TUPLE_REIFICATION);
    source.push_str(risk_rules);
    let program: Program = parse_program(&source)?;
    let facts = microdata_to_facts(db, dict)?;
    let result = Engine::new().run(&program, facts)?;

    let mut risks = vec![0.0f64; db.len()];
    for row in result.db.rows("riskOutput") {
        let (Some(Value::Int(i)), Some(r)) = (row.first(), row.get(1)) else {
            continue;
        };
        let idx = *i as usize;
        if idx < risks.len() {
            if let Some(x) = r.as_f64() {
                // several riskOutput facts may exist (e.g. SUDA before the
                // mmax fold); keep the maximum.
                risks[idx] = risks[idx].max(x);
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

/// Outcome of a fully declarative anonymization run.
#[derive(Debug, Clone)]
pub struct DeclarativeCycleOutcome {
    /// Iterations performed.
    pub iterations: usize,
    /// Labelled nulls injected (one per suppression).
    pub nulls_injected: usize,
    /// Per-row final risks.
    pub final_risks: Vec<f64>,
    /// The anonymized quasi-identifier table: per row, `(attr, value)`
    /// pairs where suppressed cells hold labelled nulls.
    pub anonymized_rows: Vec<Vec<(String, Value)>>,
    /// Risk evaluations answered goal-directed (magic-sets restricted to
    /// the rows whose groups last suppression touched).
    pub goal_evals: usize,
    /// Risk evaluations over the full program (the first iteration is
    /// always one; magic refusals add more).
    pub full_evals: usize,
    /// Goal-directed evaluations where the rewrite refused and the cycle
    /// fell back, documented-cold, to a full evaluation.
    pub goal_fallbacks: usize,
}

/// Options for [`run_declarative_cycle_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DeclarativeCycleOptions {
    /// After the first full risk evaluation, answer subsequent rounds'
    /// risk queries goal-directed: only rows whose quasi-identifier group
    /// was touched by the previous suppression are re-evaluated (their
    /// old group lost members, their new group gained them); every other
    /// row keeps its previous risk, which is sound because its group is
    /// unchanged. The goal set is closed under group equality by
    /// construction, so the magic rewrite runs with
    /// [`vadalog::MagicOptions::closed_groups`] and aggregate groups stay
    /// complete. Results are bit-identical with the full evaluation; the
    /// cycle falls back cold whenever the rewrite refuses.
    pub goal_directed: bool,
}

/// The anonymization cycle exactly as Algorithm 2 stages it: risk
/// evaluation and local suppression are both **Vadalog programs**, and the
/// host only plays the role of the `#risk`/`#anonymize` plumbing — reading
/// `riskOutput`, asserting `anonymize(I)`/`suppressattr(I, A)` facts, and
/// looping until every tuple passes the threshold.
///
/// Risk is evaluated with the declarative k-anonymity program
/// ([`alg4_kanonymity`]) under the maybe-match group semantics, realized
/// here by re-reifying the current (suppressed) `val` facts each round:
/// a suppressed cell carries a labelled null which the engine's `tuple`
/// reification keeps, and the host-side count emulation is avoided
/// entirely — grouping happens in `tuplea` on the engine.
///
/// The attribute to suppress is picked by the host (most-selective-first
/// over the current facts), mirroring §4.4's routing-strategy division of
/// labour. Suppression itself is Algorithm 7 on the engine: the fresh `⊥`
/// comes from the chase, not from host code.
pub fn run_declarative_cycle(
    db: &MicrodataDb,
    dict: &MetadataDictionary,
    k: usize,
    max_iterations: usize,
) -> Result<DeclarativeCycleOutcome, ProgramError> {
    run_declarative_cycle_with(
        db,
        dict,
        k,
        max_iterations,
        DeclarativeCycleOptions::default(),
    )
}

/// [`run_declarative_cycle`] with explicit options — see
/// [`DeclarativeCycleOptions::goal_directed`] for the warm-start path.
pub fn run_declarative_cycle_with(
    db: &MicrodataDb,
    dict: &MetadataDictionary,
    k: usize,
    max_iterations: usize,
    options: DeclarativeCycleOptions,
) -> Result<DeclarativeCycleOutcome, ProgramError> {
    use crate::maybe_match::{group_stats, NullSemantics};

    let qi_names = dict
        .quasi_identifiers(&db.name)
        .map_err(|e| ProgramError::Conversion(e.to_string()))?;
    // current QI state, row-major; starts from the input table
    let mut rows: Vec<Vec<(String, Value)>> = (0..db.len())
        .map(|i| {
            qi_names
                .iter()
                .map(|a| (a.clone(), db.value(i, a).expect("qi exists").clone()))
                .collect()
        })
        .collect();
    let m = Value::str(&db.name);
    let mut nulls_injected = 0usize;
    let mut iterations = 0usize;
    let mut goal_evals = 0usize;
    let mut full_evals = 0usize;
    let mut goal_fallbacks = 0usize;

    let risk_program = parse_program(&format!("{}{}", ALG2_TUPLE_REIFICATION, alg4_kanonymity(k)))?;
    let suppress_program = parse_program(&format!(
        "{}{}",
        ALG2_TUPLE_REIFICATION, ALG7_LOCAL_SUPPRESSION
    ))?;

    // Engine risks carry over between rounds so the goal-directed path
    // can update only the rows whose groups changed.
    let mut risks = vec![0.0f64; rows.len()];
    // Rows whose risk must be re-derived this round; `None` means all
    // (the first round, goal-directed off, or a magic fallback).
    let mut pending_goals: Option<std::collections::BTreeSet<usize>> = None;

    loop {
        // --- extensional component from the current state ---
        let mut facts = Database::new();
        facts.insert("microdb", vec![m.clone()]);
        for attr in &qi_names {
            facts.insert("att", vec![m.clone(), Value::str(attr)]);
            facts.insert(
                "cat",
                vec![m.clone(), Value::str(attr), Value::str("quasi-identifier")],
            );
        }
        for (i, row) in rows.iter().enumerate() {
            for (attr, v) in row {
                facts.insert(
                    "val",
                    vec![m.clone(), Value::Int(i as i64), Value::str(attr), v.clone()],
                );
            }
        }

        // --- #risk: the engine evaluates Algorithm 4 ---
        // The engine groups VSets by equality; the maybe-match widening is
        // applied on the host side over the reified rows, exactly like the
        // =⊥ grouping semantics of §4.3 extends plain equality.
        fn apply_risks(db: &Database, risks: &mut [f64]) {
            for r in db.rows("riskOutput") {
                if let (Some(Value::Int(i)), Some(v)) = (r.first(), r.get(1)) {
                    if let Some(x) = v.as_f64() {
                        if let Some(slot) = risks.get_mut(*i as usize) {
                            *slot = x;
                        }
                    }
                }
            }
        }
        match &pending_goals {
            Some(goal_rows) => {
                // Goal-directed warm round: derive risk only for the rows
                // whose groups the last suppression touched. Every other
                // row's group — and therefore its engine risk — is
                // unchanged and carried over.
                let goals: Vec<vadalog::Atom> = goal_rows
                    .iter()
                    .map(|&i| {
                        vadalog::Atom::new(
                            "riskOutput",
                            vec![
                                vadalog::Term::Const(Value::Int(i as i64)),
                                vadalog::Term::Var("R".to_string()),
                            ],
                        )
                    })
                    .collect();
                let run = Engine::new().run_with_goals(
                    &risk_program,
                    facts.clone(),
                    &goals,
                    vadalog::MagicOptions {
                        closed_groups: true,
                    },
                )?;
                if run.magic.applied {
                    goal_evals += 1;
                    for &i in goal_rows {
                        risks[i] = 0.0;
                    }
                    for r in run.result.db.rows("riskOutput") {
                        if let (Some(Value::Int(i)), Some(v)) = (r.first(), r.get(1)) {
                            if goal_rows.contains(&(*i as usize)) {
                                if let Some(x) = v.as_f64() {
                                    risks[*i as usize] = x;
                                }
                            }
                        }
                    }
                } else {
                    // Documented cold fallback: the rewrite could not
                    // promise the goal slice, and the engine already ran
                    // the full program in its place.
                    goal_fallbacks += usize::from(run.magic.fallback.is_some());
                    full_evals += 1;
                    risks.fill(0.0);
                    apply_risks(&run.result.db, &mut risks);
                }
            }
            None => {
                full_evals += 1;
                let result = Engine::new().run(&risk_program, facts.clone())?;
                risks.fill(0.0);
                apply_risks(&result.db, &mut risks);
            }
        }
        // maybe-match correction: a tuple the engine flags may still reach
        // k through null-tolerant matches
        let qi_matrix: Vec<Vec<Value>> = rows
            .iter()
            .map(|r| r.iter().map(|(_, v)| v.clone()).collect())
            .collect();
        let stats = group_stats(&qi_matrix, None, NullSemantics::MaybeMatch);
        for (i, &c) in stats.count.iter().enumerate() {
            if c >= k {
                risks[i] = 0.0;
            }
        }

        let risky: Vec<usize> = risks
            .iter()
            .enumerate()
            .filter(|(i, &r)| r > 0.5 && rows[*i].iter().any(|(_, v)| !v.is_null()))
            .map(|(i, _)| i)
            .collect();
        if risky.is_empty() || iterations >= max_iterations {
            return Ok(DeclarativeCycleOutcome {
                iterations,
                nulls_injected,
                final_risks: risks,
                anonymized_rows: rows,
                goal_evals,
                full_evals,
                goal_fallbacks,
            });
        }

        // --- #anonymize: assert the trigger facts, let Algorithm 7 chase ---
        // Remember the flagged rows' pre-suppression signatures: their old
        // groups lose a member, so those groups must be re-evaluated too.
        let old_sigs: Option<std::collections::BTreeSet<Vec<Value>>> =
            options.goal_directed.then(|| {
                risky
                    .iter()
                    .map(|&i| rows[i].iter().map(|(_, v)| v.clone()).collect())
                    .collect()
            });
        let mut supp_facts = facts;
        let mut picks: Vec<String> = Vec::with_capacity(risky.len());
        for &i in &risky {
            supp_facts.insert("anonymize", vec![Value::Int(i as i64)]);
            // routing: most selective non-null attribute of the row
            let pick = rows[i]
                .iter()
                .filter(|(_, v)| !v.is_null())
                .min_by_key(|(attr, v)| {
                    rows.iter()
                        .filter(|r| r.iter().any(|(a2, v2)| a2 == attr && v2 == v))
                        .count()
                })
                .map(|(a, _)| a.clone())
                .expect("risky row has a non-null QI");
            supp_facts.insert(
                "suppressattr",
                vec![Value::Int(i as i64), Value::str(&pick)],
            );
            picks.push(pick);
        }
        let result = Engine::new().run(&suppress_program, supp_facts)?;

        // read back the anonymized versions: for each flagged row, the
        // chase derived a second `tuple` fact whose picked attribute holds
        // the fresh null (the original version may carry older nulls)
        for (&i, pick) in risky.iter().zip(&picks) {
            let versions: Vec<Vec<Value>> = result
                .db
                .rows("tuple")
                .into_iter()
                .filter(|r| r[1] == Value::Int(i as i64))
                .collect();
            let nulled = versions.iter().find(|v| {
                v[2].as_set()
                    .map(|s| {
                        s.iter().any(|p| {
                            p.as_tuple()
                                .map(|t| t[0].as_str() == Some(pick.as_str()) && t[1].is_null())
                                .unwrap_or(false)
                        })
                    })
                    .unwrap_or(false)
            });
            if let Some(version) = nulled {
                if let Some(set) = version[2].as_set() {
                    for p in set.iter() {
                        if let Some(t) = p.as_tuple() {
                            if let (Some(attr), v) = (t[0].as_str(), &t[1]) {
                                if let Some(cell) = rows[i].iter_mut().find(|(a, _)| a == attr) {
                                    if v.is_null() && !cell.1.is_null() {
                                        nulls_injected += 1;
                                        // re-label host-side so nulls stay
                                        // globally distinct across rounds
                                        cell.1 = Value::Null(nulls_injected as u64 - 1);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }

        if let Some(mut touched) = old_sigs {
            // The next round only needs the rows living in a touched
            // group: the suppressed rows' old groups (lost members) and
            // their new groups (gained members). Membership is a
            // predicate of the row's *current* signature, so the set is
            // closed under group equality — the precondition for
            // `closed_groups` above.
            for &i in &risky {
                touched.insert(rows[i].iter().map(|(_, v)| v.clone()).collect());
            }
            pending_goals = Some(
                rows.iter()
                    .enumerate()
                    .filter(|(_, row)| {
                        let sig: Vec<Value> = row.iter().map(|(_, v)| v.clone()).collect();
                        touched.contains(&sig)
                    })
                    .map(|(i, _)| i)
                    .collect(),
            );
        }
        iterations += 1;
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
    fn declarative_kanonymity_matches_native() {
        let (db, dict) = fig5();
        let declarative = run_risk_program(&alg4_kanonymity(2), &db, &dict).unwrap();
        let native = KAnonymity::new(2)
            .evaluate(&native_view(&db, &dict))
            .unwrap();
        assert_eq!(declarative.len(), native.risks.len());
        for (d, n) in declarative.iter().zip(native.risks.iter()) {
            assert!((d - n).abs() < 1e-9, "declarative {d} vs native {n}");
        }
        // tuple 0 (Roma, Textiles) is the lone sample unique
        assert_eq!(declarative[0], 1.0);
        assert_eq!(declarative[1], 0.0);
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

    #[test]
    fn declarative_cycle_reaches_k_anonymity_on_fig5() {
        let (db, dict) = fig5();
        let out = run_declarative_cycle(&db, &dict, 2, 20).unwrap();
        assert!(out.iterations >= 1);
        assert!(out.nulls_injected >= 1);
        assert!(
            out.final_risks.iter().all(|&r| r <= 0.5),
            "risks: {:?}",
            out.final_risks
        );
        // tuple 0 (Roma/Textiles, the sample unique) must carry a null now
        assert!(out.anonymized_rows[0].iter().any(|(_, v)| v.is_null()));
        // untouched safe tuples keep their constants
        assert!(out.anonymized_rows[1].iter().all(|(_, v)| !v.is_null()));
    }

    #[test]
    fn declarative_cycle_matches_native_null_count_on_fig5() {
        let (db, dict) = fig5();
        let declarative = run_declarative_cycle(&db, &dict, 2, 20).unwrap();
        let risk = crate::risk::KAnonymity::new(2);
        let anonymizer = crate::anonymize::LocalSuppression::new(
            crate::anonymize::AttributeOrder::MostSelectiveFirst,
        );
        let native = crate::cycle::AnonymizationCycle::new(
            &risk,
            &anonymizer,
            crate::cycle::CycleConfig::default(),
        )
        .run(&db, &dict)
        .unwrap();
        assert_eq!(declarative.nulls_injected, native.nulls_injected);
    }

    #[test]
    fn goal_directed_cycle_is_bit_identical_to_full_cycle() {
        // The tentpole equivalence: goal-directed warm rounds must leave
        // no observable trace — risks, released rows, iteration count and
        // null count all match the full evaluation exactly.
        let (db, dict) = fig5();
        let full = run_declarative_cycle(&db, &dict, 2, 20).unwrap();
        let goal = run_declarative_cycle_with(
            &db,
            &dict,
            2,
            20,
            DeclarativeCycleOptions {
                goal_directed: true,
            },
        )
        .unwrap();
        assert_eq!(goal.iterations, full.iterations);
        assert_eq!(goal.nulls_injected, full.nulls_injected);
        assert_eq!(goal.final_risks, full.final_risks, "bit-identical risks");
        assert_eq!(goal.anonymized_rows, full.anonymized_rows);
        // and it actually took the warm path: one full eval up front,
        // goal-directed rounds after (no refusals on ALG2+ALG4)
        assert_eq!(goal.full_evals, 1);
        assert!(goal.goal_evals >= 1, "outcome: {goal:?}");
        assert_eq!(goal.goal_fallbacks, 0);
        assert_eq!(full.goal_evals, 0);
        assert_eq!(full.full_evals, full.iterations + 1);
    }

    #[test]
    fn declarative_cycle_is_a_noop_on_safe_tables() {
        // duplicate every row: everything is 2-anonymous already
        let (db, dict) = fig5();
        let mut doubled = MicrodataDb::new("fig5", db.attributes().to_vec()).unwrap();
        for i in 0..db.len() {
            doubled.push_row(db.row(i).unwrap().to_vec()).unwrap();
            doubled.push_row(db.row(i).unwrap().to_vec()).unwrap();
        }
        let out = run_declarative_cycle(&doubled, &dict, 2, 20).unwrap();
        assert_eq!(out.iterations, 0);
        assert_eq!(out.nulls_injected, 0);
    }

    #[test]
    fn suppression_program_splices_null() {
        // reify, flag tuple 0, suppress its Sector
        let (db, dict) = fig5();
        let mut source = String::from(ALG2_TUPLE_REIFICATION);
        source.push_str(ALG7_LOCAL_SUPPRESSION);
        let program = parse_program(&source).unwrap();
        let mut facts = microdata_to_facts(&db, &dict).unwrap();
        facts.insert("anonymize", vec![Value::Int(0)]);
        facts.insert("suppressattr", vec![Value::Int(0), Value::str("Sector")]);
        let result = Engine::new().run(&program, facts).unwrap();
        // tuple 0 now has two versions: original and suppressed
        let versions: Vec<Vec<Value>> = result
            .db
            .rows("tuple")
            .into_iter()
            .filter(|r| r[1] == Value::Int(0))
            .collect();
        assert_eq!(versions.len(), 2);
        let has_null_version = versions.iter().any(|v| {
            v[2].as_set()
                .map(|s| {
                    s.iter().any(|p| {
                        p.as_tuple()
                            .map(|t| t[0] == Value::str("Sector") && t[1].is_null())
                            .unwrap_or(false)
                    })
                })
                .unwrap_or(false)
        });
        assert!(has_null_version);
    }
}
