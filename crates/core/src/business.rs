//! Business knowledge: risk propagation over linked respondents
//! (paper §4.4, Algorithm 9).
//!
//! Disclosure risk propagates along relationships between respondents:
//! re-identifying one company of a group makes re-identifying the others
//! easier. Vada-SA models the links with Vadalog rules — the flagship
//! example is *company control*:
//!
//! ```text
//! (1) Own(X, Y, W), W > 0.5                        → rel(X, Y)
//! (2) rel(X, Z), Own(Z, Y, W), msum(W, ⟨Z⟩) > 0.5  → rel(X, Y)
//! ```
//!
//! `X` controls `Y` directly (> 50 % of shares) or through the companies
//! it already controls (their holdings in `Y` jointly exceed 50 %). All
//! entities linked by control form a *cluster*, and every member inherits
//! the cluster risk — the probability that at least one member is
//! re-identified:
//!
//! ```text
//! ρ_cluster = 1 − ∏_{c ∈ cluster} (1 − ρ_c)
//! ```

use crate::model::{MicrodataDb, ModelError};
use crate::risk::{MicrodataView, RiskError, RiskMeasure, RiskReport};
use std::collections::{HashMap, HashSet};
use vadalog::Value;

/// A shareholding graph: `Own(owner, owned, fraction)` edges.
#[derive(Debug, Clone, Default)]
pub struct OwnershipGraph {
    edges: Vec<(Value, Value, f64)>,
    entities: HashSet<Value>,
}

impl OwnershipGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an ownership edge `owner --w--> owned` (`0 < w ≤ 1`).
    pub fn add_edge(&mut self, owner: Value, owned: Value, fraction: f64) {
        self.entities.insert(owner.clone());
        self.entities.insert(owned.clone());
        self.edges.push((owner, owned, fraction));
    }

    /// Compute the company-control closure: the set of `(X, Y)` pairs such
    /// that `X` controls `Y` per the recursive rules above. The fixpoint
    /// iterates because gaining control of a company adds its holdings to
    /// the controller's aggregate.
    pub fn control_closure(&self) -> HashSet<(Value, Value)> {
        // holdings[y] = list of (owner, w)
        let mut holdings: HashMap<&Value, Vec<(&Value, f64)>> = HashMap::new();
        for (x, y, w) in &self.edges {
            holdings.entry(y).or_default().push((x, *w));
        }
        let mut controls: HashSet<(Value, Value)> = HashSet::new();
        // Rule 1: direct majority
        for (x, y, w) in &self.edges {
            if *w > 0.5 {
                controls.insert((x.clone(), y.clone()));
            }
        }
        // Rule 2 fixpoint: X controls Y if Σ_{Z ∈ {X} ∪ controlled(X)} w(Z→Y) > 0.5.
        // The monotonic sum takes at most one contribution per intermediary Z.
        loop {
            let mut to_add: Vec<(Value, Value)> = Vec::new();
            for y in holdings.keys() {
                let owners = &holdings[*y];
                // candidate controllers: anyone holding into y directly or
                // controlling someone who does
                let mut candidates: HashSet<&Value> = HashSet::new();
                for (z, _) in owners {
                    candidates.insert(z);
                    for (x, c) in &controls {
                        if c == *z {
                            candidates.insert(x);
                        }
                    }
                }
                for x in candidates {
                    if controls.contains(&((*x).clone(), (**y).clone())) {
                        continue;
                    }
                    let total: f64 = owners
                        .iter()
                        .filter(|(z, _)| {
                            *z == x || controls.contains(&((*x).clone(), (**z).clone()))
                        })
                        .map(|(_, w)| *w)
                        .sum();
                    if total > 0.5 && *x != **y {
                        to_add.push(((*x).clone(), (**y).clone()));
                    }
                }
            }
            let mut changed = false;
            for pair in to_add {
                changed |= controls.insert(pair);
            }
            if !changed {
                break;
            }
        }
        controls
    }

    /// Partition the entities into clusters: the connected components of
    /// the (symmetrized) control relation. Entities with no control link
    /// form singleton clusters.
    pub fn clusters(&self) -> Vec<Vec<Value>> {
        let controls = self.control_closure();
        let mut adj: HashMap<&Value, Vec<&Value>> = HashMap::new();
        for (x, y) in &controls {
            adj.entry(x).or_default().push(y);
            adj.entry(y).or_default().push(x);
        }
        let mut seen: HashSet<&Value> = HashSet::new();
        let mut out: Vec<Vec<Value>> = Vec::new();
        let mut entities: Vec<&Value> = self.entities.iter().collect();
        entities.sort();
        for e in entities {
            if seen.contains(e) {
                continue;
            }
            let mut component = Vec::new();
            let mut stack = vec![e];
            while let Some(cur) = stack.pop() {
                if !seen.insert(cur) {
                    continue;
                }
                component.push(cur.clone());
                if let Some(next) = adj.get(cur) {
                    stack.extend(next.iter().copied());
                }
            }
            component.sort();
            out.push(component);
        }
        out
    }
}

/// Maps microdata rows to cluster ids (rows outside any cluster keep a
/// singleton id of their own).
#[derive(Debug, Clone)]
pub struct ClusterMap {
    /// cluster id per row.
    pub row_cluster: Vec<usize>,
    /// number of clusters.
    pub cluster_count: usize,
}

impl ClusterMap {
    /// Build the map from an ownership graph and the microdata's identifier
    /// column: rows whose identifier belongs to the same control cluster
    /// share a cluster id.
    pub fn from_graph(
        graph: &OwnershipGraph,
        db: &MicrodataDb,
        id_attr: &str,
    ) -> Result<Self, ModelError> {
        let ids = db.column(id_attr)?;
        let clusters = graph.clusters();
        let mut entity_cluster: HashMap<&Value, usize> = HashMap::new();
        for (ci, members) in clusters.iter().enumerate() {
            for m in members {
                entity_cluster.insert(m, ci);
            }
        }
        let mut next = clusters.len();
        let mut row_cluster = Vec::with_capacity(ids.len());
        for id in &ids {
            match entity_cluster.get(id) {
                Some(&c) => row_cluster.push(c),
                None => {
                    row_cluster.push(next);
                    next += 1;
                }
            }
        }
        Ok(ClusterMap {
            row_cluster,
            cluster_count: next,
        })
    }

    /// Trivial map: every row is its own cluster.
    pub fn singletons(n: usize) -> Self {
        ClusterMap {
            row_cluster: (0..n).collect(),
            cluster_count: n,
        }
    }
}

/// Combine per-member risks into the cluster risk `1 − ∏ (1 − ρ_c)`.
pub fn combined_cluster_risk(risks: &[f64]) -> f64 {
    let product: f64 = risks.iter().map(|r| 1.0 - r.clamp(0.0, 1.0)).product();
    1.0 - product
}

/// A risk-measure adapter implementing Algorithm 9: evaluate the base
/// measure, then lift every tuple's risk to its cluster's combined risk.
pub struct ClusterRisk<'a> {
    /// Underlying per-tuple risk measure.
    pub base: &'a dyn RiskMeasure,
    /// Row → cluster assignment.
    pub clusters: ClusterMap,
}

impl<'a> ClusterRisk<'a> {
    /// Wrap `base` with cluster propagation.
    pub fn new(base: &'a dyn RiskMeasure, clusters: ClusterMap) -> Self {
        ClusterRisk { base, clusters }
    }
}

impl RiskMeasure for ClusterRisk<'_> {
    fn name(&self) -> &str {
        "cluster-risk"
    }

    fn evaluate(&self, view: &MicrodataView) -> Result<RiskReport, RiskError> {
        let mut report = self.base.evaluate(view)?;
        if self.clusters.row_cluster.len() != report.risks.len() {
            return Err(RiskError::View(format!(
                "cluster map covers {} rows, view has {}",
                self.clusters.row_cluster.len(),
                report.risks.len()
            )));
        }
        // per-cluster product of (1 - ρ)
        let mut cluster_safe = vec![1.0f64; self.clusters.cluster_count];
        for (row, &c) in self.clusters.row_cluster.iter().enumerate() {
            cluster_safe[c] *= 1.0 - report.risks[row].clamp(0.0, 1.0);
        }
        // every row's note is rewritten, so the base's note table goes
        report.notes.clear();
        for (row, &c) in self.clusters.row_cluster.iter().enumerate() {
            let combined = 1.0 - cluster_safe[c];
            report.details[row].note = report.add_note(format!(
                "cluster {c}: own risk {:.4}, cluster risk {combined:.4}",
                report.risks[row]
            ));
            report.risks[row] = combined;
        }
        report.measure = format!("cluster({})", self.base.name());
        Ok(report)
    }

    fn evaluate_tuple(&self, view: &MicrodataView, row: usize) -> Option<f64> {
        let c = *self.clusters.row_cluster.get(row)?;
        // combine the incremental base risks of every cluster member; if
        // the base measure has no incremental form, neither do we
        let mut safe = 1.0f64;
        for (member, &mc) in self.clusters.row_cluster.iter().enumerate() {
            if mc != c {
                continue;
            }
            let r = self.base.evaluate_tuple(view, member)?;
            safe *= 1.0 - r.clamp(0.0, 1.0);
        }
        Some(1.0 - safe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::risk::test_support::view_of;
    use crate::risk::KAnonymity;

    fn v(s: &str) -> Value {
        Value::str(s)
    }

    #[test]
    fn direct_majority_control() {
        let mut g = OwnershipGraph::new();
        g.add_edge(v("a"), v("b"), 0.6);
        g.add_edge(v("a"), v("c"), 0.4);
        let ctrl = g.control_closure();
        assert!(ctrl.contains(&(v("a"), v("b"))));
        assert!(!ctrl.contains(&(v("a"), v("c"))));
    }

    #[test]
    fn joint_control_through_subsidiaries() {
        // a owns 60% of b; a owns 30% of c and b owns 30% of c:
        // a controls c through b (0.3 + 0.3 > 0.5)
        let mut g = OwnershipGraph::new();
        g.add_edge(v("a"), v("b"), 0.6);
        g.add_edge(v("a"), v("c"), 0.3);
        g.add_edge(v("b"), v("c"), 0.3);
        let ctrl = g.control_closure();
        assert!(ctrl.contains(&(v("a"), v("c"))));
        // b alone does not control c
        assert!(!ctrl.contains(&(v("b"), v("c"))));
    }

    #[test]
    fn control_is_transitively_extended() {
        // chain: a -0.6-> b -0.6-> c -0.6-> d; a controls all of them
        let mut g = OwnershipGraph::new();
        g.add_edge(v("a"), v("b"), 0.6);
        g.add_edge(v("b"), v("c"), 0.6);
        g.add_edge(v("c"), v("d"), 0.6);
        let ctrl = g.control_closure();
        for target in ["b", "c", "d"] {
            assert!(
                ctrl.contains(&(v("a"), v(target))),
                "a should control {target}"
            );
        }
    }

    #[test]
    fn clusters_group_linked_entities() {
        let mut g = OwnershipGraph::new();
        g.add_edge(v("a"), v("b"), 0.6);
        g.add_edge(v("x"), v("y"), 0.2); // no control
        let clusters = g.clusters();
        let ab = clusters.iter().find(|c| c.contains(&v("a"))).unwrap();
        assert!(ab.contains(&v("b")));
        let x = clusters.iter().find(|c| c.contains(&v("x"))).unwrap();
        assert_eq!(x.len(), 1);
    }

    #[test]
    fn combined_risk_formula() {
        assert!((combined_cluster_risk(&[0.5, 0.5]) - 0.75).abs() < 1e-12);
        assert_eq!(combined_cluster_risk(&[]), 0.0);
        assert_eq!(combined_cluster_risk(&[1.0, 0.0]), 1.0);
        // bounded above by 1 and below by the max member
        let risks = [0.2, 0.3, 0.4];
        let c = combined_cluster_risk(&risks);
        assert!((0.4..=1.0).contains(&c));
    }

    #[test]
    fn cluster_risk_lifts_members() {
        // rows 0 and 1 in one cluster; row 0 risky, row 1 safe under k-anon
        let view = view_of(vec![vec!["unique"], vec!["common"], vec!["common"]], None);
        let base = KAnonymity::new(2);
        let clusters = ClusterMap {
            row_cluster: vec![0, 0, 1],
            cluster_count: 2,
        };
        let wrapped = ClusterRisk::new(&base, clusters);
        let report = wrapped.evaluate(&view).unwrap();
        // cluster 0 combined risk = 1 - (1-1)(1-0) = 1 → both members risky
        assert_eq!(report.risks[0], 1.0);
        assert_eq!(report.risks[1], 1.0);
        assert_eq!(report.risks[2], 0.0);
        // every row's note is rewritten, none of the base's is left
        let own = base.evaluate(&view).unwrap();
        for (row, c) in [0, 0, 1].into_iter().enumerate() {
            assert_eq!(
                report.note(row),
                format!(
                    "cluster {c}: own risk {:.4}, cluster risk {:.4}",
                    own.risks[row], report.risks[row]
                )
            );
        }
        assert_eq!(report.notes.len(), 3);
    }

    #[test]
    fn cluster_map_from_graph_and_ids() {
        let mut db = MicrodataDb::new("m", ["id"]).unwrap();
        for id in ["a", "b", "z"] {
            db.push_row(vec![v(id)]).unwrap();
        }
        let mut g = OwnershipGraph::new();
        g.add_edge(v("a"), v("b"), 0.7);
        let map = ClusterMap::from_graph(&g, &db, "id").unwrap();
        assert_eq!(map.row_cluster[0], map.row_cluster[1]);
        assert_ne!(map.row_cluster[0], map.row_cluster[2]);
    }

    #[test]
    fn incremental_cluster_risk_matches_full_evaluation() {
        let view = view_of(
            vec![vec!["unique"], vec!["common"], vec!["common"], vec!["solo"]],
            None,
        );
        let base = KAnonymity::new(2);
        let clusters = ClusterMap {
            row_cluster: vec![0, 0, 1, 1],
            cluster_count: 2,
        };
        let wrapped = ClusterRisk::new(&base, clusters);
        let full = wrapped.evaluate(&view).unwrap();
        for row in 0..view.len() {
            let inc = wrapped.evaluate_tuple(&view, row).unwrap();
            assert!(
                (inc - full.risks[row]).abs() < 1e-12,
                "row {row}: incremental {inc} vs full {}",
                full.risks[row]
            );
        }
    }

    #[test]
    fn mismatched_cluster_map_is_an_error() {
        let view = view_of(vec![vec!["a"]], None);
        let base = KAnonymity::new(2);
        let wrapped = ClusterRisk::new(&base, ClusterMap::singletons(5));
        assert!(wrapped.evaluate(&view).is_err());
    }
}
