//! The cost model behind planner v2: score every *sound* plan for a
//! request and pick the cheapest.
//!
//! Structural soundness (key cover, denial fragment, component-local
//! generators) stays a hard **feasibility gate** — the model only ranks
//! plans whose answers are interchangeable, so whatever it picks, the
//! served estimates stay exactly as correct as v1's. Ranking uses three
//! signal tiers, best available first:
//!
//! 1. **learned** — exponentially decayed per-(database, plan) sampling
//!    cost (µs of the `sample` stage), recorded post-hoc by the shard
//!    after every leader run and journaled into the store so restarts
//!    resume them;
//! 2. **metrics** — the shard's global per-plan latency histograms
//!    ([`crate::obs::ShardMetrics`], the PR 6 feed — no new counters),
//!    used when this database has no learned estimate for the plan;
//! 3. **prior** — analytic step counts from the catalog-maintained
//!    [`DbStats`], calibrated into µs by the best learned estimate when
//!    one exists (calibration is order-preserving, so priors never flip
//!    under wall-clock noise alone).
//!
//! The answer-cache hit/dominance rate adds switch hysteresis: when the
//! cache is hot, non-incumbent plans pay a small penalty (a plan switch
//! re-keys every cached answer), so near-ties don't thrash the cache.
//!
//! Decisions are memoized per (database version × feasibility set): the
//! model re-evaluates exactly when the catalog version bumps, never
//! mid-version — cached answers for a version always share one plan.

use super::stats::DbStats;
use super::{DbPlan, PlanKind};
use crate::obs::HistSnapshot;
use ocqa_core::ChainGenerator;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// How the engine resolves automatic (non-overridden) answer plans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PlannerMode {
    /// Pin every automatic answer to the monolithic walk.
    Off,
    /// The v1 structural classifier (install-time shape + the
    /// single-giant-component guard). Kept reachable for A/B.
    Static,
    /// The cost model (the default).
    #[default]
    Cost,
}

impl PlannerMode {
    /// The CLI / protocol label.
    pub fn as_str(self) -> &'static str {
        match self {
            PlannerMode::Off => "off",
            PlannerMode::Static => "static",
            PlannerMode::Cost => "cost",
        }
    }

    /// Parses a mode name.
    pub fn parse(s: &str) -> Option<PlannerMode> {
        match s {
            "off" => Some(PlannerMode::Off),
            "static" => Some(PlannerMode::Static),
            "cost" => Some(PlannerMode::Cost),
            _ => None,
        }
    }
}

/// One exponentially decayed per-(database, plan) cost estimate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Estimate {
    /// Decayed mean of the observed `sample`-stage cost, µs (0 = none).
    pub ewma_us: u64,
    /// Observations folded in (the decay makes old ones fade; this
    /// counts them all).
    pub samples: u64,
}

/// Where a candidate's cost number came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostSource {
    /// Analytic steps from [`DbStats`] (possibly µs-calibrated).
    Prior,
    /// The shard's global per-plan latency histogram mean.
    Metrics,
    /// This database's decayed per-plan estimate.
    Learned,
}

impl CostSource {
    /// The protocol label.
    pub fn as_str(self) -> &'static str {
        match self {
            CostSource::Prior => "prior",
            CostSource::Metrics => "metrics",
            CostSource::Learned => "learned",
        }
    }
}

/// One plan's verdict in an `explain` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// The plan under consideration.
    pub plan: PlanKind,
    /// Whether the structural gates admit it for this database ×
    /// generator.
    pub feasible: bool,
    /// The gate that rejected it (`None` when feasible).
    pub gate: Option<&'static str>,
    /// The model's cost estimate (abstract units or µs, comparable
    /// within one response).
    pub cost: u64,
    /// Which signal tier produced `cost`.
    pub source: CostSource,
}

/// Plans in registry order (mirrors [`crate::obs::PLANS`]).
const ORDER: [PlanKind; 3] = [
    PlanKind::KeyRepair,
    PlanKind::Localized,
    PlanKind::Monolithic,
];

fn idx(plan: PlanKind) -> usize {
    match plan {
        PlanKind::KeyRepair => 0,
        PlanKind::Localized => 1,
        PlanKind::Monolithic => 2,
    }
}

/// The structural feasibility gate for one plan, shared by the cost
/// model, the `explain` op, and [`DbPlan::route`]'s override validation.
/// Returns the gate label that rejects the plan, if any.
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
            } else if !db_plan.admits_localized() {
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
            } else if !db_plan.admits_key_repair() {
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
/// monolithic]` from the catalog-maintained statistics. Integer-only so
/// the priors — and with them zero-feedback `explain` responses — are
/// bit-deterministic across deployments.
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
///   distribution (and a fortiori a single giant component) back to
///   monolithic even when a clean region keeps the static guard away;
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

/// Cache hit rate (hits + dominance hits, permille) above which the
/// switch-hysteresis penalty applies.
const HYSTERESIS_PERMILLE: u64 = 250;

/// Journal cadence: the shard persists the model every this many leader
/// observations.
pub const FEEDBACK_JOURNAL_EVERY: u64 = 8;

#[derive(Debug, Clone, Copy)]
struct Decision {
    version: u64,
    /// Feasibility bitmask (bit `idx(plan)`): a generator change that
    /// alters the feasible set re-decides even within a version.
    mask: u8,
    choice: PlanKind,
}

/// The per-shard cost model: learned estimates plus memoized decisions.
#[derive(Debug, Default)]
pub struct CostModel {
    learned: Mutex<HashMap<String, [Estimate; 3]>>,
    decisions: Mutex<HashMap<String, Decision>>,
    observations: AtomicU64,
}

impl CostModel {
    /// An empty model (cold priors).
    pub fn new() -> CostModel {
        CostModel::default()
    }

    /// Seeds learned estimates recovered from the store, so a restarted
    /// shard resumes where it left off instead of re-learning.
    pub fn restore(&self, estimates: impl IntoIterator<Item = (String, [Estimate; 3])>) {
        let mut learned = self.learned.lock();
        for (db, ests) in estimates {
            learned.insert(db, ests);
        }
    }

    /// Folds one post-hoc observation (the leader's `sample`-stage µs
    /// for `plan` on `db`) into the decayed estimate (α = 0.3). Returns
    /// the model's total observation count — the shard journals the
    /// model every [`FEEDBACK_JOURNAL_EVERY`] of these.
    pub fn observe(&self, db: &str, plan: PlanKind, sample_us: u64) -> u64 {
        let mut learned = self.learned.lock();
        let est = &mut learned.entry(db.to_string()).or_default()[idx(plan)];
        est.ewma_us = if est.samples == 0 {
            sample_us
        } else {
            (sample_us.saturating_mul(3)).saturating_add(est.ewma_us.saturating_mul(7)) / 10
        }
        .max(1);
        est.samples = est.samples.saturating_add(1);
        drop(learned);
        self.observations.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// This database's learned estimates (zeros when none).
    pub fn estimates(&self, db: &str) -> [Estimate; 3] {
        self.learned.lock().get(db).copied().unwrap_or_default()
    }

    /// The plan the model last decided for `db`, if any.
    pub fn incumbent(&self, db: &str) -> Option<PlanKind> {
        self.decisions.lock().get(db).map(|d| d.choice)
    }

    /// Drops everything learned about `db` (a dropped database's
    /// estimates must not leak onto a future namesake holding different
    /// data).
    pub fn forget_db(&self, db: &str) {
        self.learned.lock().remove(db);
        self.decisions.lock().remove(db);
    }

    /// The full learned state, sorted by database name (the journaled
    /// feedback image — sorting keeps the on-disk bytes deterministic).
    pub fn export(&self) -> Vec<(String, [Estimate; 3])> {
        let mut out: Vec<(String, [Estimate; 3])> = self
            .learned
            .lock()
            .iter()
            .map(|(db, e)| (db.clone(), *e))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Scores all three plans for one request. `plan_hists` is the
    /// shard's per-plan latency snapshot in registry order;
    /// `hit_rate_permille` the answer-cache hit+dominance rate feeding
    /// the hysteresis penalty.
    #[allow(clippy::too_many_arguments)]
    pub fn candidates(
        &self,
        db: &str,
        db_plan: &DbPlan,
        gen: &dyn ChainGenerator,
        stats: &DbStats,
        plan_hists: &[HistSnapshot; 3],
        incumbent: Option<PlanKind>,
        hit_rate_permille: u64,
    ) -> [Candidate; 3] {
        let steps = analytic_steps(stats);
        let learned = self.estimates(db);
        // µs-per-step calibration for prior-tier candidates: the most
        // sampled learned estimate wins, falling back to the busiest
        // global plan histogram. A pure ratio, so calibrating never
        // reorders priors among themselves.
        let calibration: Option<(u64, u64)> = ORDER
            .iter()
            .filter(|p| learned[idx(**p)].samples > 0)
            .max_by_key(|p| learned[idx(**p)].samples)
            .map(|p| (learned[idx(*p)].ewma_us, steps[idx(*p)]))
            .or_else(|| {
                ORDER
                    .iter()
                    .filter(|p| plan_hists[idx(**p)].count > 0)
                    .max_by_key(|p| plan_hists[idx(**p)].count)
                    .map(|p| {
                        let h = &plan_hists[idx(*p)];
                        ((h.sum_us / h.count).max(1), steps[idx(*p)])
                    })
            });
        ORDER.map(|plan| {
            let i = idx(plan);
            let gate = feasibility_gate(plan, db_plan, gen);
            let hist_mean = plan_hists[i].sum_us.checked_div(plan_hists[i].count);
            let (cost, source) = if learned[i].samples > 0 {
                (learned[i].ewma_us, CostSource::Learned)
            } else if let Some(mean) = hist_mean {
                (mean.max(1), CostSource::Metrics)
            } else {
                let cost = match calibration {
                    Some((us, ref_steps)) => steps[i].saturating_mul(us) / ref_steps.max(1),
                    None => steps[i],
                };
                (cost.max(1), CostSource::Prior)
            };
            // Switch hysteresis: with a hot cache, leaving the incumbent
            // re-keys every cached answer — make challengers beat it by
            // a margin, not a hair.
            let cost = match incumbent {
                Some(inc) if plan != inc && hit_rate_permille >= HYSTERESIS_PERMILLE => {
                    cost.saturating_add(cost / 16)
                }
                _ => cost,
            };
            Candidate {
                plan,
                feasible: gate.is_none(),
                gate,
                cost,
                source,
            }
        })
    }

    /// Resolves the plan for one automatic answer: cheapest feasible
    /// candidate, memoized per (version, feasibility set) — the choice
    /// is re-evaluated exactly when the catalog version bumps (or the
    /// generator's capabilities change the feasible set), so every
    /// cached answer for a version shares one plan. `inputs` supplies
    /// the runtime signals (per-plan histograms, cache hit rate) and is
    /// only called on a re-decision.
    pub fn choose(
        &self,
        db: &str,
        version: u64,
        db_plan: &DbPlan,
        gen: &dyn ChainGenerator,
        stats: &DbStats,
        inputs: impl FnOnce() -> ([HistSnapshot; 3], u64),
    ) -> PlanKind {
        let mut mask = 0u8;
        for plan in ORDER {
            if feasibility_gate(plan, db_plan, gen).is_none() {
                mask |= 1 << idx(plan);
            }
        }
        let incumbent = {
            let decisions = self.decisions.lock();
            match decisions.get(db) {
                Some(d) if d.version == version && d.mask == mask => return d.choice,
                Some(d) => Some(d.choice),
                None => None,
            }
        };
        let (plan_hists, hit_rate) = inputs();
        let candidates = self.candidates(db, db_plan, gen, stats, &plan_hists, incumbent, hit_rate);
        let mut choice = PlanKind::Monolithic;
        let mut best = u64::MAX;
        for c in candidates {
            if c.feasible && c.cost < best {
                best = c.cost;
                choice = c.plan;
            }
        }
        self.decisions.lock().insert(
            db.to_string(),
            Decision {
                version,
                mask,
                choice,
            },
        );
        choice
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocqa_core::RepairContext;
    use ocqa_data::Database;
    use ocqa_logic::parser;
    use std::sync::Arc;

    fn db_plan(facts: &str, constraints: &str) -> (DbPlan, DbStats) {
        let facts = parser::parse_facts(facts).unwrap();
        let sigma = parser::parse_constraints(constraints).unwrap();
        let schema = parser::infer_schema(&facts, &sigma).unwrap();
        let db = Database::from_facts(schema, facts).unwrap();
        let ctx = RepairContext::new(db, sigma);
        let plan = DbPlan::build(&ctx);
        let stats = plan.stats();
        (plan, stats)
    }

    fn uniform() -> Arc<dyn ChainGenerator> {
        crate::engine::generator_by_name("uniform").unwrap()
    }

    fn empty_hists() -> [HistSnapshot; 3] {
        [HistSnapshot::default(); 3]
    }

    #[test]
    fn mode_names_round_trip() {
        for mode in [PlannerMode::Off, PlannerMode::Static, PlannerMode::Cost] {
            assert_eq!(PlannerMode::parse(mode.as_str()), Some(mode));
        }
        assert_eq!(PlannerMode::parse("on"), None, "the pre-v2 alias is gone");
        assert_eq!(PlannerMode::parse("turbo"), None);
        assert_eq!(PlannerMode::default(), PlannerMode::Cost);
    }

    #[test]
    fn cold_priors_reproduce_static_choices() {
        let model = CostModel::new();
        let gen = uniform();
        // Key-only database: key-repair wins.
        let (plan, stats) = db_plan(
            "R(1,10). R(1,20). R(2,30). R(2,40). R(3,50).",
            "R(x,y), R(x,z) -> y = z.",
        );
        assert_eq!(
            model.choose("kv", 1, &plan, gen.as_ref(), &stats, || (empty_hists(), 0)),
            PlanKind::KeyRepair
        );
        // Multi-component DC: localized wins.
        let (plan, stats) = db_plan(
            "Pref(a,b). Pref(b,a). Pref(c,d). Pref(d,c). Pref(e,f).",
            "Pref(x,y), Pref(y,x) -> false.",
        );
        assert_eq!(
            model.choose("prefs", 1, &plan, gen.as_ref(), &stats, || (
                empty_hists(),
                0
            )),
            PlanKind::Localized
        );
        // Single giant component, no clean region: monolithic (the
        // static guard case, reproduced by the priors).
        let (plan, stats) = db_plan(
            "Pref(a,b). Pref(b,c). Pref(c,a).",
            "Pref(x,y), Pref(y,z) -> false.",
        );
        assert_eq!(
            model.choose("giant", 1, &plan, gen.as_ref(), &stats, || (
                empty_hists(),
                0
            )),
            PlanKind::Monolithic
        );
        // Non-component-local generator: only monolithic is feasible.
        let (plan, stats) = db_plan(
            "Pref(a,b). Pref(b,a). Pref(c,d). Pref(d,c).",
            "Pref(x,y), Pref(y,x) -> false.",
        );
        let pref = crate::engine::generator_by_name("preference").unwrap();
        assert_eq!(
            model.choose("p2", 1, &plan, pref.as_ref(), &stats, || (empty_hists(), 0)),
            PlanKind::Monolithic
        );
    }

    #[test]
    fn giant_component_with_clean_region_flips_only_under_cost() {
        // A 12-cycle under the 2-path DC plus one clean fact: the static
        // guard keeps localizing (clean region non-empty), but the
        // priors see one giant component ≈ the whole database and flip
        // to monolithic — the drift case the classifier cannot make.
        let cycle: String = (0..12)
            .map(|i| format!("Pref(n{},n{}). ", i, (i + 1) % 12))
            .collect::<String>()
            + "Pref(q,r).";
        let (plan, stats) = db_plan(&cycle, "Pref(x,y), Pref(y,z) -> false.");
        assert!(
            stats.localize_worthwhile(),
            "static guard would keep localized"
        );
        assert_eq!(
            plan.route(uniform().as_ref(), None).unwrap(),
            PlanKind::Localized,
            "static routing stays localized"
        );
        let model = CostModel::new();
        assert_eq!(
            model.choose("drift", 2, &plan, uniform().as_ref(), &stats, || (
                empty_hists(),
                0
            )),
            PlanKind::Monolithic,
            "cost model flips to monolithic"
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
        assert_eq!(f[2], h[2], "monolithic prior ignores the distribution");
        assert!(h[1] > f[1], "heavier tail raises the localized prior");
        assert!(f[1] < f[2], "flat distribution keeps localized cheaper");
        assert!(h[1] > h[2], "heavy tail prices localized above monolithic");
    }

    #[test]
    fn learned_estimates_override_priors() {
        let (plan, stats) = db_plan(
            "Pref(a,b). Pref(b,a). Pref(c,d). Pref(d,c). Pref(e,f).",
            "Pref(x,y), Pref(y,x) -> false.",
        );
        let model = CostModel::new();
        let gen = uniform();
        assert_eq!(
            model.choose("db", 1, &plan, gen.as_ref(), &stats, || (empty_hists(), 0)),
            PlanKind::Localized
        );
        // Observed reality disagrees with the priors: localized is slow
        // here, monolithic fast. Two independent µs signals can reorder.
        for _ in 0..4 {
            model.observe("db", PlanKind::Localized, 50_000);
            model.observe("db", PlanKind::Monolithic, 800);
        }
        // Memoized within the version…
        assert_eq!(
            model.choose("db", 1, &plan, gen.as_ref(), &stats, || (empty_hists(), 0)),
            PlanKind::Localized,
            "decision is stable within a version"
        );
        // …and re-evaluated when it bumps.
        assert_eq!(
            model.choose("db", 2, &plan, gen.as_ref(), &stats, || (empty_hists(), 0)),
            PlanKind::Monolithic,
            "version bump re-decides from feedback"
        );
        let ests = model.estimates("db");
        assert!(ests[idx(PlanKind::Localized)].ewma_us > ests[idx(PlanKind::Monolithic)].ewma_us);
        assert_eq!(ests[idx(PlanKind::Localized)].samples, 4);
    }

    #[test]
    fn ewma_decays_toward_recent_observations() {
        let model = CostModel::new();
        model.observe("db", PlanKind::Monolithic, 10_000);
        for _ in 0..20 {
            model.observe("db", PlanKind::Monolithic, 100);
        }
        let e = model.estimates("db")[idx(PlanKind::Monolithic)];
        assert!(e.ewma_us < 200, "old spike must fade, got {}", e.ewma_us);
        assert_eq!(e.samples, 21);
    }

    #[test]
    fn hysteresis_holds_near_ties_with_a_hot_cache() {
        let (plan, stats) = db_plan(
            "Pref(a,b). Pref(b,a). Pref(c,d). Pref(d,c). Pref(e,f).",
            "Pref(x,y), Pref(y,x) -> false.",
        );
        let model = CostModel::new();
        let gen = uniform();
        assert_eq!(
            model.choose("db", 1, &plan, gen.as_ref(), &stats, || (empty_hists(), 0)),
            PlanKind::Localized
        );
        // A challenger that is only a hair cheaper (learned 97 vs 100)…
        model.observe("db", PlanKind::Localized, 100);
        model.observe("db", PlanKind::Monolithic, 97);
        // …does not displace a hot-cache incumbent (penalty 97+97/16 >
        // 100)…
        assert_eq!(
            model.choose("db", 2, &plan, gen.as_ref(), &stats, || (
                empty_hists(),
                900
            )),
            PlanKind::Localized,
            "hot cache holds the incumbent through near-ties"
        );
        // …but a cold cache lets the cheaper plan through.
        let cold = CostModel::new();
        cold.observe("db", PlanKind::Localized, 100);
        cold.observe("db", PlanKind::Monolithic, 97);
        assert_eq!(
            cold.choose("db", 2, &plan, gen.as_ref(), &stats, || (empty_hists(), 0)),
            PlanKind::Monolithic
        );
    }

    #[test]
    fn export_restore_round_trips_sorted() {
        let model = CostModel::new();
        model.observe("zeta", PlanKind::Monolithic, 500);
        model.observe("alpha", PlanKind::KeyRepair, 30);
        let exported = model.export();
        assert_eq!(exported.len(), 2);
        assert_eq!(exported[0].0, "alpha", "export is name-sorted");
        let recovered = CostModel::new();
        recovered.restore(exported.clone());
        assert_eq!(recovered.export(), exported);
        assert_eq!(
            recovered.estimates("alpha")[idx(PlanKind::KeyRepair)].ewma_us,
            30
        );
    }

    #[test]
    fn forget_db_clears_learned_state() {
        let model = CostModel::new();
        model.observe("db", PlanKind::Monolithic, 500);
        model.forget_db("db");
        assert_eq!(model.estimates("db"), [Estimate::default(); 3]);
        assert_eq!(model.incumbent("db"), None);
    }

    #[test]
    fn candidates_report_gates_and_sources() {
        let (plan, stats) = db_plan(
            "Pref(a,b). Pref(b,a). Pref(c,d). Pref(d,c).",
            "Pref(x,y), Pref(y,x) -> false.",
        );
        let model = CostModel::new();
        let cands = model.candidates(
            "db",
            &plan,
            uniform().as_ref(),
            &stats,
            &empty_hists(),
            None,
            0,
        );
        assert_eq!(cands[0].plan, PlanKind::KeyRepair);
        assert!(!cands[0].feasible);
        assert_eq!(cands[0].gate, Some(GATE_KEY_COVER));
        assert!(cands[1].feasible && cands[2].feasible);
        assert!(cands.iter().all(|c| c.source == CostSource::Prior));
        // A learned observation upgrades that plan's source.
        model.observe("db", PlanKind::Localized, 777);
        let cands = model.candidates(
            "db",
            &plan,
            uniform().as_ref(),
            &stats,
            &empty_hists(),
            None,
            0,
        );
        assert_eq!(cands[1].source, CostSource::Learned);
        assert_eq!(cands[1].cost, 777);
        // Calibration scales the others' priors but keeps their order.
        assert_eq!(cands[2].source, CostSource::Prior);
        assert!(cands[2].cost > cands[1].cost);
    }
}
