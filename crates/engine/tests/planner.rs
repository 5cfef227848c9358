//! Planner equivalence: for fixed seeds, planner-served answers must agree
//! with the exact conditional probabilities (computed by full chain
//! exploration) within ε, and stay bit-identical across pool sizes.

use ocqa_core::explore::{repair_distribution, ExploreOptions};
use ocqa_core::{RepairContext, UniformGenerator};
use ocqa_data::Database;
use ocqa_engine::{Engine, EngineConfig, EngineRequest, EngineResponse, PlanKind, QueryRef};
use ocqa_logic::parser;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Exact CP per answer tuple via monolithic exploration.
fn exact_cp(facts: &str, constraints: &str, query: &str) -> BTreeMap<String, f64> {
    let parsed = parser::parse_facts(facts).unwrap();
    let sigma = parser::parse_constraints(constraints).unwrap();
    let schema = parser::infer_schema(&parsed, &sigma).unwrap();
    let db = Database::from_facts(schema, parsed).unwrap();
    let ctx = RepairContext::new(db, sigma);
    let dist =
        repair_distribution(&ctx, &UniformGenerator::new(), &ExploreOptions::default()).unwrap();
    let q = parser::parse_query(query).unwrap();
    ocqa_core::answer::operational_answers(&dist, &q)
        .into_iter()
        .map(|(tuple, p)| {
            let key = tuple
                .iter()
                .map(|c| format!("{c}"))
                .collect::<Vec<_>>()
                .join(",");
            (key, p.to_f64())
        })
        .collect()
}

fn engine(workers: usize) -> Arc<Engine> {
    Engine::new(EngineConfig {
        workers,
        cache_capacity: 64,
        ..EngineConfig::default()
    })
}

fn create(e: &Engine, name: &str, facts: &str, constraints: &str) {
    let resp = e.handle(EngineRequest::CreateDb {
        name: name.into(),
        facts: facts.into(),
        constraints: constraints.into(),
    });
    assert!(matches!(resp, EngineResponse::Created(_)), "{resp:?}");
}

fn answer(e: &Engine, db: &str, query: &str, eps: f64, seed: u64) -> ocqa_engine::AnswerPayload {
    pinned(e, db, query, eps, seed, None)
}

fn pinned(
    e: &Engine,
    db: &str,
    query: &str,
    eps: f64,
    seed: u64,
    plan: Option<PlanKind>,
) -> ocqa_engine::AnswerPayload {
    let resp = e.handle(EngineRequest::Answer {
        db: db.into(),
        query: QueryRef::Text(query.into()),
        generator: "uniform".into(),
        eps,
        delta: eps,
        seed,
        plan,
    });
    let EngineResponse::Answer(a) = resp else {
        panic!("expected answer, got {resp:?}");
    };
    a
}

fn explain(e: &Engine, db: &str) -> ocqa_engine::ExplainPayload {
    let EngineResponse::Explain(x) = e.handle(EngineRequest::Explain {
        db: db.into(),
        generator: "uniform".into(),
    }) else {
        panic!("expected explain");
    };
    x
}

/// `[localized, monolithic]` candidate costs of an `explain`.
fn walk_costs(x: &ocqa_engine::ExplainPayload) -> [u64; 2] {
    [PlanKind::Localized, PlanKind::Monolithic].map(|plan| {
        let c = x.candidates.iter().find(|c| c.plan == plan).unwrap();
        assert!(c.feasible, "{c:?}");
        c.cost
    })
}

const KEY_FACTS: &str = "R(1,10). R(1,20). R(2,30). R(2,40). R(2,50). R(3,60).";
const KEY_SIGMA: &str = "R(x,y), R(x,z) -> y = z.";
const DC_FACTS: &str = "Pref(a,b). Pref(b,a). Pref(c,d). Pref(d,c). Pref(e,f).";
const DC_SIGMA: &str = "Pref(x,y), Pref(y,x) -> false.";
const QUERY_R: &str = "(x) <- exists y: R(x,y)";
const QUERY_P: &str = "(x) <- exists y: Pref(x,y)";

#[test]
fn key_repair_plan_agrees_with_exact_cp() {
    let exact = exact_cp(KEY_FACTS, KEY_SIGMA, QUERY_R);
    let e = engine(2);
    create(&e, "kv", KEY_FACTS, KEY_SIGMA);
    // ε = δ = 0.05 ⇒ 738 walks; the additive bound holds with prob .95
    // per tuple, and these seeds are fixed (deterministic regression).
    for seed in [1u64, 2, 3] {
        let a = answer(&e, "kv", QUERY_R, 0.05, seed);
        assert_eq!(a.plan, PlanKind::KeyRepair);
        assert_eq!(a.failed_walks, 0);
        for row in &a.answers {
            let key = format!("{}", row.tuple[0]);
            let cp = exact[&key];
            assert!(
                (row.p - cp).abs() <= 0.05,
                "seed {seed}, tuple {key}: served {} vs exact {cp}",
                row.p
            );
            assert_eq!(row.p, row.p_cond, "non-failing chain: estimators agree");
        }
    }
}

#[test]
fn localized_plan_agrees_with_exact_cp() {
    let exact = exact_cp(DC_FACTS, DC_SIGMA, QUERY_P);
    let e = engine(2);
    create(&e, "prefs", DC_FACTS, DC_SIGMA);
    for seed in [1u64, 2, 3] {
        let a = answer(&e, "prefs", QUERY_P, 0.05, seed);
        assert_eq!(a.plan, PlanKind::Localized);
        for row in &a.answers {
            let key = format!("{}", row.tuple[0]);
            let cp = exact[&key];
            assert!(
                (row.p - cp).abs() <= 0.05,
                "seed {seed}, tuple {key}: served {} vs exact {cp}",
                row.p
            );
        }
    }
}

/// Two 3-cycles under a 2-path denial constraint, plus one clean fact:
/// multi-component, so the analytic costs start on the localized plan
/// (33 steps against monolithic's 49).
const DRIFT_FACTS: &str =
    "Pref(a,b). Pref(b,c). Pref(c,a). Pref(d,e). Pref(e,f). Pref(f,d). Pref(q,r).";
const DRIFT_SIGMA: &str = "Pref(x,y), Pref(y,z) -> false.";
/// The drift: collapse everything into one 12-node cycle. The clean
/// fact survives, so a structural rule (`components != 1 || clean > 0`)
/// would keep localizing; only the costs (258 against 169) can flip.
const DRIFT_DELETE: &str = "Pref(c,a). Pref(d,e). Pref(e,f). Pref(f,d).";
const DRIFT_INSERT: &str = "Pref(c,d). Pref(d,e2). Pref(e2,f2). Pref(f2,g). Pref(g,h). \
     Pref(h,i). Pref(i,j). Pref(j,k). Pref(k,l). Pref(l,a).";

#[test]
fn drifted_database_flips_to_monolithic_only_under_the_cost_model() {
    // Two engines with the same history: `auto` answers automatically,
    // `pins` serves the explicit plan overrides the flip is checked
    // against.
    let auto = engine(2);
    let pins = engine(2);
    for e in [&auto, &pins] {
        create(e, "drift", DRIFT_FACTS, DRIFT_SIGMA);
    }
    assert_eq!(walk_costs(&explain(&auto, "drift")), [33, 49]);
    let before = answer(&auto, "drift", QUERY_P, 0.1, 5);
    assert_eq!(before.plan, PlanKind::Localized);
    assert_eq!(
        before.answers,
        pinned(&pins, "drift", QUERY_P, 0.1, 5, Some(PlanKind::Localized)).answers
    );

    // Drift: the same update stream on both engines grows one giant
    // conflict component (a 12-cycle) while the clean fact remains.
    for e in [&auto, &pins] {
        let resp = e.handle(EngineRequest::Delete {
            db: "drift".into(),
            facts: DRIFT_DELETE.into(),
        });
        assert!(matches!(resp, EngineResponse::Updated(_)), "{resp:?}");
        let resp = e.handle(EngineRequest::Insert {
            db: "drift".into(),
            facts: DRIFT_INSERT.into(),
        });
        assert!(matches!(resp, EngineResponse::Updated(_)), "{resp:?}");
    }

    // Post-drift the costs flip to monolithic. The flip changes only
    // *which* plan serves: the automatic payload is bit-identical to an
    // explicit monolithic pin (determinism contract), and the two plans'
    // estimates agree within their summed ε bounds.
    let x = explain(&auto, "drift");
    assert_eq!(x.chosen, PlanKind::Monolithic);
    assert_eq!((x.stats.components, x.stats.clean_facts), (1, 1));
    assert_eq!(walk_costs(&x), [258, 169], "the loser stays feasible");
    let key_repair = x
        .candidates
        .iter()
        .find(|c| c.plan == PlanKind::KeyRepair)
        .unwrap();
    assert!(!key_repair.feasible);
    assert_eq!(key_repair.gate, Some("key-cover"));

    let after = answer(&auto, "drift", QUERY_P, 0.1, 9);
    assert_eq!(after.plan, PlanKind::Monolithic);
    let monolithic = pinned(&pins, "drift", QUERY_P, 0.1, 9, Some(PlanKind::Monolithic));
    assert_eq!(after.answers, monolithic.answers);
    let localized = pinned(&pins, "drift", QUERY_P, 0.1, 9, Some(PlanKind::Localized));
    assert_eq!(after.answers.len(), localized.answers.len());
    for (m, l) in after.answers.iter().zip(&localized.answers) {
        assert_eq!(m.tuple, l.tuple);
        assert!(
            (m.p - l.p).abs() <= 0.2,
            "plans disagree beyond 2ε on {:?}: {} vs {}",
            m.tuple,
            m.p,
            l.p
        );
    }
}

#[test]
fn cotenant_traffic_cannot_change_an_automatic_answer() {
    // Engine A holds only `p`; engine B also holds two co-tenants on the
    // same (single) shard that serve pinned plans first, filling the
    // shard's per-plan latency histograms. Plan choice must not read
    // them: `p`'s automatic answer is the same bytes in both.
    let alone = engine(2);
    create(&alone, "p", DRIFT_FACTS, DRIFT_SIGMA);
    let shared = engine(2);
    create(&shared, "p", DRIFT_FACTS, DRIFT_SIGMA);
    let big: String = (0..20)
        .map(|i| format!("Pref(a{i},b{i}). Pref(b{i},c{i}). Pref(c{i},a{i}). "))
        .collect();
    create(&shared, "big", &big, DRIFT_SIGMA);
    create(&shared, "tiny", "Pref(a,b). Pref(b,a).", DC_SIGMA);
    for seed in 1..=3u64 {
        for (db, plan) in [("big", PlanKind::Localized), ("tiny", PlanKind::Monolithic)] {
            pinned(&shared, db, QUERY_P, 0.1, seed, Some(plan));
        }
    }
    let a = answer(&alone, "p", QUERY_P, 0.1, 5);
    let b = answer(&shared, "p", QUERY_P, 0.1, 5);
    assert_eq!(a.plan, PlanKind::Localized);
    assert_eq!(b.plan, a.plan, "co-tenant traffic changed the plan");
    assert_eq!(b.answers, a.answers, "co-tenant traffic changed the answer");
    assert_eq!(
        explain(&shared, "p").candidates,
        explain(&alone, "p").candidates
    );
}

#[test]
fn planner_answers_bit_identical_across_pool_sizes() {
    // The engine-level counterpart of the pool's determinism test: for
    // each planned database the full served payload (tuples and both
    // estimators) must not depend on the worker count.
    for (name, facts, sigma, query, plan) in [
        ("kv", KEY_FACTS, KEY_SIGMA, QUERY_R, PlanKind::KeyRepair),
        ("prefs", DC_FACTS, DC_SIGMA, QUERY_P, PlanKind::Localized),
    ] {
        let mut outputs = Vec::new();
        for workers in [1usize, 2, 8] {
            let e = engine(workers);
            create(&e, name, facts, sigma);
            let a = answer(&e, name, query, 0.05, 123);
            assert_eq!(a.plan, plan);
            outputs.push(
                a.answers
                    .iter()
                    .map(|r| (r.tuple.clone(), r.p, r.p_cond))
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(outputs[0], outputs[1], "{name}: 1 vs 2 workers");
        assert_eq!(outputs[0], outputs[2], "{name}: 1 vs 8 workers");
    }
}
