//! Per-database statistics for the planner's analytic costs.
//!
//! [`DbStats`] summarizes the conflict structure of one catalog entry —
//! fact count, conflict-component count and size distribution, violating
//! group count, clean-region size — cheaply enough to recompute on every
//! install/update/drop. The [`crate::catalog::Catalog`] keeps a stats
//! value current per entry (it changes exactly when the version bumps),
//! so the planner never recomputes statistics per request and never
//! needs a sampling snapshot ([`ocqa_core::RepairContext`]) to score a
//! plan: the component structure is derived directly from the maintained
//! violation set with a local union-find over violation body images,
//! mirroring `ocqa_core::localize::conflict_components` without the
//! base-domain construction that a full snapshot pays.

use ocqa_data::{Database, Fact};
use ocqa_logic::{ConstraintSet, ViolationSet};
use std::collections::HashMap;

/// Conflict-structure statistics of one database at one version.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Total fact count `|D|`.
    pub facts: u64,
    /// Facts appearing in at least one violation (the conflict region).
    pub conflict_facts: u64,
    /// Facts in no violation (`facts - conflict_facts`): the clean
    /// region, shared by every repair and never cloned on the localized
    /// path.
    pub clean_facts: u64,
    /// Number of conflict components (violations chained by shared
    /// facts).
    pub components: u64,
    /// Size (in facts) of the largest conflict component.
    pub largest_component: u64,
    /// `Σ size(c)²` over the components — the quadratic mass the
    /// localized plan's per-component walks scale with.
    pub sum_sq_component: u64,
    /// Nearest-rank 95th percentile of the component-size distribution
    /// (0 when there are no components). Together with
    /// [`largest_component`](Self::largest_component) this exposes the
    /// distribution's *tail* to the analytic costs: the localized plan's
    /// wall-clock is gated by its straggler components, which a
    /// sum-of-squares aggregate hides when one giant component sits
    /// among many small ones.
    pub p95_component: u64,
    /// Number of violations (violating homomorphisms) in `V(D, Σ)`.
    pub violations: u64,
}

impl DbStats {
    /// Computes the statistics for one database state. Cost is
    /// `O(|V| · |body| · α)` — proportional to the violation set, not
    /// the database — plus the `O(1)` fact count.
    pub fn compute(db: &Database, sigma: &ConstraintSet, violations: &ViolationSet) -> DbStats {
        // Union-find over the facts that appear in violations: facts in
        // one violation share a component; components chain through
        // shared facts.
        let mut index: HashMap<Fact, usize> = HashMap::new();
        let mut parent: Vec<usize> = Vec::new();
        let mut size: Vec<u64> = Vec::new();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]]; // path halving
                x = parent[x];
            }
            x
        }
        for violation in violations.iter() {
            let mut prev: Option<usize> = None;
            for fact in violation.body_image(sigma) {
                let next = parent.len();
                let id = *index.entry(fact).or_insert_with(|| {
                    parent.push(next);
                    size.push(1);
                    next
                });
                let root = find(&mut parent, id);
                if let Some(p) = prev {
                    let p_root = find(&mut parent, p);
                    if p_root != root {
                        // Union by size.
                        let (big, small) = if size[p_root] >= size[root] {
                            (p_root, root)
                        } else {
                            (root, p_root)
                        };
                        parent[small] = big;
                        size[big] += size[small];
                        prev = Some(big);
                        continue;
                    }
                }
                prev = Some(root);
            }
        }
        let conflict_facts = index.len() as u64;
        let mut sizes: Vec<u64> = Vec::new();
        let mut largest = 0u64;
        let mut sum_sq = 0u64;
        for x in 0..parent.len() {
            if parent[x] == x {
                largest = largest.max(size[x]);
                sum_sq = sum_sq.saturating_add(size[x].saturating_mul(size[x]));
                sizes.push(size[x]);
            }
        }
        sizes.sort_unstable();
        // Nearest-rank percentile: the ⌈0.95·n⌉-th smallest size.
        let p95 = if sizes.is_empty() {
            0
        } else {
            let rank = (sizes.len() * 95).div_ceil(100);
            sizes[rank - 1]
        };
        let facts = db.len() as u64;
        DbStats {
            facts,
            conflict_facts,
            clean_facts: facts.saturating_sub(conflict_facts),
            components: sizes.len() as u64,
            largest_component: largest,
            sum_sq_component: sum_sq,
            p95_component: p95,
            violations: violations.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocqa_logic::parser;

    fn stats(facts: &str, constraints: &str) -> DbStats {
        let facts = parser::parse_facts(facts).unwrap();
        let sigma = parser::parse_constraints(constraints).unwrap();
        let schema = parser::infer_schema(&facts, &sigma).unwrap();
        let db = Database::from_facts(schema, facts).unwrap();
        let violations = ViolationSet::compute(&sigma, &db);
        DbStats::compute(&db, &sigma, &violations)
    }

    #[test]
    fn counts_components_and_clean_region() {
        // Two 2-cycles plus one clean fact under a symmetric DC.
        let s = stats(
            "Pref(a,b). Pref(b,a). Pref(c,d). Pref(d,c). Pref(e,f).",
            "Pref(x,y), Pref(y,x) -> false.",
        );
        assert_eq!(s.facts, 5);
        assert_eq!(s.conflict_facts, 4);
        assert_eq!(s.clean_facts, 1);
        assert_eq!(s.components, 2);
        assert_eq!(s.largest_component, 2);
        assert_eq!(s.sum_sq_component, 8);
        assert_eq!(s.p95_component, 2);
        assert!(s.violations >= 2);
    }

    #[test]
    fn giant_component_with_no_clean_region() {
        // The 2-path DC over a 3-cycle chains every fact together.
        let s = stats(
            "Pref(a,b). Pref(b,c). Pref(c,a).",
            "Pref(x,y), Pref(y,z) -> false.",
        );
        assert_eq!(s.components, 1);
        assert_eq!(s.largest_component, 3);
        assert_eq!(s.clean_facts, 0);
        // One clean fact leaves the single component in place.
        let s = stats(
            "Pref(a,b). Pref(b,c). Pref(c,a). Pref(q,r).",
            "Pref(x,y), Pref(y,z) -> false.",
        );
        assert_eq!(s.components, 1);
        assert_eq!(s.clean_facts, 1);
    }

    #[test]
    fn consistent_database_has_no_conflict_mass() {
        let s = stats("R(1,10). R(2,20).", "R(x,y), R(x,z) -> y = z.");
        assert_eq!(s.violations, 0);
        assert_eq!(s.components, 0);
        assert_eq!(s.conflict_facts, 0);
        assert_eq!(s.clean_facts, 2);
        assert_eq!(s.sum_sq_component, 0);
        assert_eq!(s.p95_component, 0);
    }

    #[test]
    fn key_groups_form_per_group_components() {
        // Key groups R(1,*) (2 facts) and R(2,*) (3 facts) conflict
        // independently.
        let s = stats(
            "R(1,10). R(1,20). R(2,30). R(2,40). R(2,50). R(3,60).",
            "R(x,y), R(x,z) -> y = z.",
        );
        assert_eq!(s.components, 2);
        assert_eq!(s.largest_component, 3);
        assert_eq!(s.sum_sq_component, 4 + 9);
        assert_eq!(s.p95_component, 3);
        assert_eq!(s.clean_facts, 1);
    }

    #[test]
    fn p95_tracks_the_distribution_tail_not_the_mean() {
        // A single 6-fact straggler among 2-fact groups: whether p95
        // sees it depends on how deep into the tail it sits.
        let mut facts = String::new();
        for k in 0..19 {
            facts.push_str(&format!("R({k},1). R({k},2). "));
        }
        for v in 0..6 {
            facts.push_str(&format!("R(99,{v}). "));
        }
        let s = stats(&facts, "R(x,y), R(x,z) -> y = z.");
        assert_eq!(s.components, 20);
        assert_eq!(s.largest_component, 6);
        // ⌈0.95·20⌉ = 19 → the 19th smallest of [2×19, 6] is 2.
        assert_eq!(s.p95_component, 2);
        // With 10 groups the straggler *is* the p95: ⌈0.95·10⌉ = 10.
        let mut facts = String::new();
        for k in 0..9 {
            facts.push_str(&format!("R({k},1). R({k},2). "));
        }
        for v in 0..6 {
            facts.push_str(&format!("R(99,{v}). "));
        }
        let s = stats(&facts, "R(x,y), R(x,z) -> y = z.");
        assert_eq!(s.components, 10);
        assert_eq!(s.p95_component, 6);
    }

    #[test]
    fn matches_localize_conflict_components() {
        // The stats union-find must agree with the sampler's component
        // computation on component count and sizes.
        for (facts, sigma) in [
            (
                "Pref(a,b). Pref(b,c). Pref(c,a). Pref(d,e). Pref(e,f). Pref(f,d). Pref(q,r).",
                "Pref(x,y), Pref(y,z) -> false.",
            ),
            (
                "R(1,10). R(1,20). R(2,30). R(2,40). R(2,50). R(3,60).",
                "R(x,y), R(x,z) -> y = z.",
            ),
        ] {
            let parsed_facts = parser::parse_facts(facts).unwrap();
            let parsed_sigma = parser::parse_constraints(sigma).unwrap();
            let schema = parser::infer_schema(&parsed_facts, &parsed_sigma).unwrap();
            let db = Database::from_facts(schema, parsed_facts).unwrap();
            let ctx = ocqa_core::RepairContext::new(db.clone(), parsed_sigma.clone());
            let parts = ocqa_core::localize::conflict_components(&ctx);
            let violations = ViolationSet::compute(&parsed_sigma, &db);
            let s = DbStats::compute(&db, &parsed_sigma, &violations);
            assert_eq!(s.components as usize, parts.components.len(), "{facts}");
            assert_eq!(s.clean_facts as usize, parts.clean.len(), "{facts}");
            let mut sizes: Vec<u64> = parts.components.iter().map(|c| c.len() as u64).collect();
            sizes.sort_unstable();
            assert_eq!(
                s.sum_sq_component,
                sizes.iter().map(|n| n * n).sum::<u64>(),
                "{facts}"
            );
            assert_eq!(s.largest_component, sizes.last().copied().unwrap_or(0));
        }
    }
}
