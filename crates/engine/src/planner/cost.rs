//! The planner's cost function: score every *sound* plan for a request
//! by analytic step counts and serve the cheapest.
//!
//! Structural soundness (key cover, denial fragment, component-local
//! generators) is a hard **feasibility gate** — costs only rank plans
//! whose answers are interchangeable, so whichever plan wins, the served
//! estimate is exactly as correct as any other feasible plan's.
//!
//! Costs are integer step counts derived from the catalog-maintained
//! [`DbStats`] alone. The choice is therefore a pure function of the
//! database version and the generator's capabilities: no wall-clock
//! measurement, traffic on other databases or process history can move
//! it — and with it the RNG stream and the bytes of an answer.

use super::stats::DbStats;
use super::{DbPlan, PlanKind};
use ocqa_core::ChainGenerator;

/// One plan's verdict in an `explain` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The plan under consideration.
    pub plan: PlanKind,
    /// Whether the structural gates admit it for this database ×
    /// generator.
    pub feasible: bool,
    /// The gate that rejected it (`None` when feasible).
    pub gate: Option<&'static str>,
    /// Analytic step count of one request under this plan.
    pub cost: u64,
}

/// Plans in registry order (mirrors [`crate::obs::PLANS`]); cost ties go
/// to the earlier plan.
const ORDER: [PlanKind; 3] = [
    PlanKind::KeyRepair,
    PlanKind::Localized,
    PlanKind::Monolithic,
];

/// The structural feasibility gate for one plan, shared by automatic
/// routing, the `explain` op, and [`DbPlan::route`]'s override
/// validation. Returns the gate label that rejects the plan, if any.
pub fn feasibility_gate(
    plan: PlanKind,
    db_plan: &DbPlan,
    gen: &dyn ChainGenerator,
) -> Option<&'static str> {
    match plan {
        PlanKind::Monolithic => None,
        PlanKind::Localized => {
            if !gen.component_local() {
                Some(GATE_COMPONENT_LOCAL)
            } else if !db_plan.denial {
                Some(GATE_DENIAL_FRAGMENT)
            } else {
                None
            }
        }
        PlanKind::KeyRepair => {
            if !gen.component_local() {
                Some(GATE_COMPONENT_LOCAL)
            } else if gen.key_repair_policy().is_none() {
                Some(GATE_GROUP_POLICY)
            } else if db_plan.key_configs.is_none() {
                Some(GATE_KEY_COVER)
            } else {
                None
            }
        }
    }
}

/// Gate label: the generator is not component-local.
pub const GATE_COMPONENT_LOCAL: &str = "component-local";
/// Gate label: the generator has no key-repair group policy.
pub const GATE_GROUP_POLICY: &str = "group-policy";
/// Gate label: the constraints are not primary-key-only.
pub const GATE_KEY_COVER: &str = "key-cover";
/// Gate label: the constraints are not in the denial fragment.
pub const GATE_DENIAL_FRAGMENT: &str = "denial-fragment";

/// Analytic per-request step counts `[key-repair, localized,
/// monolithic]` from the catalog-maintained statistics. Integer-only, so
/// plan choice and `explain` responses are bit-deterministic across
/// deployments.
///
/// * monolithic walks a `(violations+1)`-step chain cloning the whole
///   database per step: `(V+1)·|D|`;
/// * localized walks each component in its own Σ-sized space
///   (`Σ V·s²/|conflict|` ≈ per-component chains) plus a **straggler
///   term** from the component-size distribution's tail
///   (`V·max·p95/|conflict|`, halved): per-component walks finish when
///   the *largest* components do, and the sum-of-squares mass alone
///   cannot tell a flat distribution from one giant among many small —
///   plus the overlay compose over the conflict region, all times a 9/8
///   bookkeeping factor. The tail term is what tips a skewed
///   distribution, and a fortiori a single giant component, back to
///   monolithic;
/// * key-repair draws one outcome per violating group: `V+1`.
fn analytic_steps(stats: &DbStats) -> [u64; 3] {
    let v = stats.violations;
    let key_repair = v.saturating_add(1);
    let monolithic = v.saturating_add(1).saturating_mul(stats.facts.max(1));
    let conflict = stats.conflict_facts.max(1);
    let per_component = v.saturating_mul(stats.sum_sq_component) / conflict;
    let straggler =
        v.saturating_mul(stats.largest_component.saturating_mul(stats.p95_component)) / conflict;
    let localized = per_component
        .saturating_add(straggler / 2)
        .saturating_add(stats.conflict_facts)
        .saturating_add(2)
        .saturating_mul(9)
        / 8;
    [key_repair.max(1), localized.max(1), monolithic.max(1)]
}

impl DbPlan {
    /// Scores all three plans for one request, in registry order.
    pub(crate) fn candidates(&self, gen: &dyn ChainGenerator) -> [Candidate; 3] {
        let steps = analytic_steps(&self.stats);
        std::array::from_fn(|i| {
            let gate = feasibility_gate(ORDER[i], self, gen);
            Candidate {
                plan: ORDER[i],
                feasible: gate.is_none(),
                gate,
                cost: steps[i],
            }
        })
    }
}

/// The cheapest feasible candidate, ties broken in registry order
/// (key-repair, localized, monolithic). Monolithic is always feasible,
/// so there is always a winner.
pub(crate) fn cheapest(candidates: &[Candidate; 3]) -> PlanKind {
    candidates
        .iter()
        .filter(|c| c.feasible)
        .min_by_key(|c| c.cost)
        .map_or(PlanKind::Monolithic, |c| c.plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocqa_core::RepairContext;
    use ocqa_data::Database;
    use ocqa_logic::parser;
    use std::sync::Arc;

    fn db_plan(facts: &str, constraints: &str) -> DbPlan {
        let facts = parser::parse_facts(facts).unwrap();
        let sigma = parser::parse_constraints(constraints).unwrap();
        let schema = parser::infer_schema(&facts, &sigma).unwrap();
        let db = Database::from_facts(schema, facts).unwrap();
        DbPlan::build(&RepairContext::new(db, sigma))
    }

    fn uniform() -> Arc<dyn ChainGenerator> {
        crate::engine::generator_by_name("uniform").unwrap()
    }

    #[test]
    fn analytic_costs_reproduce_structural_choices() {
        let gen = uniform();
        // Key-only database: key-repair wins.
        let plan = db_plan(
            "R(1,10). R(1,20). R(2,30). R(2,40). R(3,50).",
            "R(x,y), R(x,z) -> y = z.",
        );
        assert_eq!(plan.route(gen.as_ref(), None).unwrap(), PlanKind::KeyRepair);
        // Multi-component DC: localized wins.
        let plan = db_plan(
            "Pref(a,b). Pref(b,a). Pref(c,d). Pref(d,c). Pref(e,f).",
            "Pref(x,y), Pref(y,x) -> false.",
        );
        assert_eq!(plan.route(gen.as_ref(), None).unwrap(), PlanKind::Localized);
        // Single giant component, no clean region: monolithic.
        let plan = db_plan(
            "Pref(a,b). Pref(b,c). Pref(c,a).",
            "Pref(x,y), Pref(y,z) -> false.",
        );
        assert_eq!(
            plan.route(gen.as_ref(), None).unwrap(),
            PlanKind::Monolithic
        );
        // Non-component-local generator: only monolithic is feasible.
        let plan = db_plan(
            "Pref(a,b). Pref(b,a). Pref(c,d). Pref(d,c).",
            "Pref(x,y), Pref(y,x) -> false.",
        );
        let pref = crate::engine::generator_by_name("preference").unwrap();
        assert_eq!(
            plan.route(pref.as_ref(), None).unwrap(),
            PlanKind::Monolithic
        );
    }

    #[test]
    fn giant_component_with_clean_region_flips_only_under_cost() {
        // A 12-cycle under the 2-path DC plus one clean fact: a structural
        // rule (one component but a non-empty clean region) would keep
        // localizing, but the costs see one giant component ≈ the whole
        // database and flip to monolithic.
        let cycle: String = (0..12)
            .map(|i| format!("Pref(n{},n{}). ", i, (i + 1) % 12))
            .collect::<String>()
            + "Pref(q,r).";
        let plan = db_plan(&cycle, "Pref(x,y), Pref(y,z) -> false.");
        let stats = plan.stats();
        assert_eq!((stats.components, stats.clean_facts), (1, 1));
        let [_, localized, monolithic] = plan.candidates(uniform().as_ref());
        assert!(localized.feasible && localized.cost > monolithic.cost);
        assert_eq!(
            plan.route(uniform().as_ref(), None).unwrap(),
            PlanKind::Monolithic
        );
    }

    #[test]
    fn skewed_component_distribution_shifts_localized_vs_monolithic() {
        // Two fabricated stats with identical totals and identical
        // quadratic mass — only the distribution tail (largest / p95)
        // differs — to isolate the straggler term: the heavy tail must
        // price localized above monolithic, the flat one below.
        let flat = DbStats {
            facts: 18,
            conflict_facts: 16,
            clean_facts: 2,
            components: 2,
            largest_component: 5,
            sum_sq_component: 200,
            p95_component: 5,
            violations: 24,
        };
        let heavy = DbStats {
            largest_component: 14,
            p95_component: 14,
            ..flat
        };
        let f = analytic_steps(&flat);
        let h = analytic_steps(&heavy);
        assert_eq!(f[2], h[2], "monolithic cost ignores the distribution");
        assert!(h[1] > f[1], "heavier tail raises the localized cost");
        assert!(f[1] < f[2], "flat distribution keeps localized cheaper");
        assert!(h[1] > h[2], "heavy tail prices localized above monolithic");
    }

    #[test]
    fn candidates_report_gates_and_costs() {
        let plan = db_plan(
            "Pref(a,b). Pref(b,a). Pref(c,d). Pref(d,c).",
            "Pref(x,y), Pref(y,x) -> false.",
        );
        let cands = plan.candidates(uniform().as_ref());
        assert_eq!(cands.map(|c| c.plan), ORDER);
        assert!(!cands[0].feasible);
        assert_eq!(cands[0].gate, Some(GATE_KEY_COVER));
        assert!(cands[1].feasible && cands[2].feasible);
        assert_eq!(
            cands.map(|c| c.cost),
            analytic_steps(&plan.stats()),
            "cost is the analytic step count"
        );
        assert_eq!(cheapest(&cands), PlanKind::Localized);
    }

    #[test]
    fn cost_ties_go_to_the_earlier_plan() {
        let tie = |cost: [u64; 3]| {
            cheapest(&std::array::from_fn(|i| Candidate {
                plan: ORDER[i],
                feasible: true,
                gate: None,
                cost: cost[i],
            }))
        };
        assert_eq!(tie([5, 5, 5]), PlanKind::KeyRepair);
        assert_eq!(tie([6, 5, 5]), PlanKind::Localized);
        assert_eq!(tie([6, 6, 5]), PlanKind::Monolithic);
    }
}
