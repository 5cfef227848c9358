//! Cross-crate end-to-end scenarios: trust-based integration, overlay
//! rewriting vs. materialization, and semantics comparisons.

use ocqa::core::keyrepair::{GroupPolicy, KeyConfig, KeyRepairSampler};
use ocqa::prelude::*;
use ocqa::workload::{
    IntegrationSpec, IntegrationWorkload, KeyConflictSpec, KeyConflictWorkload, PreferenceWorkload,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// A full integration pipeline: generate conflicting sources, repair with
/// the trust generator, answer a query with exact probabilities.
#[test]
fn trust_integration_pipeline() {
    let w = IntegrationWorkload::generate(&IntegrationSpec {
        entities: 6,
        sources: 2,
        conflict_percent: 60,
        seed: 4,
    });
    assert!(w.conflicting_entities() > 0);
    let gen = TrustGenerator::new(
        w.trust.iter().map(|(f, t)| (f.clone(), t.clone())),
        Rat::ratio(1, 2),
    );
    let ctx = RepairContext::new(w.db.clone(), w.sigma.clone());
    let dist =
        explore::repair_distribution(&ctx, &gen, &explore::ExploreOptions::default()).unwrap();
    assert!(dist.success_mass().is_one(), "deletion-only ⇒ non-failing");
    // Every repair satisfies the key and is a subset of the original.
    for info in dist.repairs() {
        assert!(w.sigma.satisfied_by(&info.db));
        for f in info.db.facts() {
            assert!(w.db.contains(&f));
        }
    }
    // Higher-trust facts survive with higher probability: compute survival
    // probability of each fact of a conflicting pair.
    let groups = ocqa::core::keyrepair::violating_groups(
        &w.db,
        &KeyConfig {
            relation: Symbol::intern("R"),
            key_cols: vec![0],
        },
    );
    for group in &groups {
        let survival = |f: &Fact| -> Rat {
            dist.repairs()
                .iter()
                .filter(|r| r.db.contains(f))
                .map(|r| r.probability.clone())
                .sum()
        };
        let (a, b) = (&group[0], &group[1]);
        let (sa, sb) = (survival(a), survival(b));
        match w.trust[a].cmp(&w.trust[b]) {
            std::cmp::Ordering::Less => assert!(sa <= sb, "trust order violated"),
            std::cmp::Ordering::Greater => assert!(sa >= sb, "trust order violated"),
            std::cmp::Ordering::Equal => assert_eq!(sa, sb),
        }
    }
}

/// The §5 rewriting (`DeletionOverlay`) gives the same answers as
/// materializing `D − R_del`.
#[test]
fn overlay_equals_materialized_difference() {
    let w = PreferenceWorkload::paper_example();
    let q = w.most_preferred_query();
    let deleted: HashSet<Fact> = [
        Fact::parts("Pref", &["b", "a"]),
        Fact::parts("Pref", &["c", "a"]),
    ]
    .into_iter()
    .collect();
    let overlay = DeletionOverlay::new(&w.db, &deleted);
    let mut materialized = w.db.clone();
    for f in &deleted {
        materialized.remove(f);
    }
    assert_eq!(q.answers(&overlay), q.answers(&materialized));
    // Also for a conjunctive query exercising the hom-engine path.
    let cq = parser::parse_query("(x, z) <- exists y: (Pref(x,y) & Pref(y,z))").unwrap();
    assert_eq!(cq.answers(&overlay), cq.answers(&materialized));

    // The §5 rewriting Q[R ↦ R − R_del] on the 1,000-tuple key workload
    // (E7), with 1 % and with 10 % of the facts in R_del.
    let w = KeyConflictWorkload::generate(&KeyConflictSpec {
        clean_tuples: 1_000,
        conflict_groups: 0,
        group_size: 2,
        value_domain: 1_000,
        seed: 99,
    });
    let q = parser::parse_query("(x) <- exists y: R(x, y)").unwrap();
    for del_pct in [1, 10] {
        let deleted: HashSet<Fact> =
            w.db.facts()
                .enumerate()
                .filter(|(i, _)| i % 100 < del_pct)
                .map(|(_, f)| f)
                .collect();
        assert_eq!(deleted.len(), 10 * del_pct);
        let overlay = DeletionOverlay::new(&w.db, &deleted);
        let mut materialized = w.db.clone();
        for f in &deleted {
            materialized.remove(f);
        }
        let answers = q.answers(&materialized);
        assert_eq!(answers.len(), 1_000 - deleted.len(), "{del_pct} % deleted");
        assert_eq!(q.answers(&overlay), answers, "{del_pct} % deleted");
    }
}

/// Key-repair sampling with the trust policy matches the trust generator's
/// exact marginals on pair conflicts.
#[test]
fn key_sampler_trust_policy_matches_generator() {
    let facts = parser::parse_facts("R(a,1). R(a,2).").unwrap();
    let sigma = parser::parse_constraints("R(x,y), R(x,z) -> y = z.").unwrap();
    let schema = parser::infer_schema(&facts, &sigma).unwrap();
    let db = Database::from_facts(schema, facts).unwrap();
    // Note: the parser reads `1`/`2` as integer constants.
    let f1 = Fact::new("R", vec![Constant::named("a"), Constant::int(1)]);
    let f2 = Fact::new("R", vec![Constant::named("a"), Constant::int(2)]);
    assert!(db.contains(&f1) && db.contains(&f2));
    let trust: std::collections::BTreeMap<Fact, Rat> = [
        (f1.clone(), Rat::ratio(4, 5)),
        (f2.clone(), Rat::ratio(1, 5)),
    ]
    .into_iter()
    .collect();

    // Generic engine with the trust generator.
    let gen = TrustGenerator::new(
        trust.iter().map(|(f, t)| (f.clone(), t.clone())),
        Rat::ratio(1, 2),
    );
    let ctx = RepairContext::new(db.clone(), sigma);
    let dist =
        explore::repair_distribution(&ctx, &gen, &explore::ExploreOptions::default()).unwrap();

    // §5 fast path with the trust policy.
    let sampler = KeyRepairSampler::new(
        &db,
        &KeyConfig {
            relation: Symbol::intern("R"),
            key_cols: vec![0],
        },
        &GroupPolicy::Trust {
            trust: trust.clone(),
            default_trust: Rat::ratio(1, 2),
        },
    )
    .unwrap();
    let product = sampler.exact_distribution();

    // Both must assign identical probabilities to identical repairs: for a
    // single pair, the Markov chain has exactly the three one-step
    // outcomes of the product distribution.
    assert_eq!(dist.repairs().len(), 3);
    assert_eq!(product.len(), 3);
    for (dels, p) in &product {
        let mut repaired = db.clone();
        for f in dels {
            repaired.remove(f);
        }
        assert_eq!(
            dist.probability_of(&repaired),
            *p,
            "mismatch for deletion set of size {}",
            dels.len()
        );
    }
}

/// Operational certain answers (CP = 1) coincide with ABC certain answers
/// on conflict-free relations, and are refined by probabilities elsewhere.
#[test]
fn certain_answer_comparison() {
    let facts =
        parser::parse_facts("Emp(e1, sales). Emp(e1, hr). Emp(e2, sales). Dept(sales).").unwrap();
    let sigma = parser::parse_constraints("Emp(x,y), Emp(x,z) -> y = z.").unwrap();
    let schema = parser::infer_schema(&facts, &sigma).unwrap();
    let db = Database::from_facts(schema, facts).unwrap();
    let q = parser::parse_query("(x) <- exists d: (Emp(x, d) & Dept(d))").unwrap();

    // ABC: e2 is certain (always in sales); e1 only when the sales tuple
    // survives.
    let repairs = ocqa::abc::subset_repairs(&db, &sigma).unwrap();
    let abc_certain = ocqa::abc::certain_answers(&repairs, &q);
    assert_eq!(abc_certain.len(), 1);
    assert!(abc_certain.contains(&vec![Constant::named("e2")]));

    // Operational (uniform): e2 certain, e1 with probability strictly
    // between 0 and 1.
    let ctx = RepairContext::new(db, sigma);
    let dist = explore::repair_distribution(
        &ctx,
        &UniformGenerator::new(),
        &explore::ExploreOptions::default(),
    )
    .unwrap();
    let oca = answer::operational_answers(&dist, &q);
    let p_of = |name: &str| -> Rat {
        oca.iter()
            .find(|(t, _)| t == &vec![Constant::named(name)])
            .map(|(_, p)| p.clone())
            .unwrap_or_else(Rat::zero)
    };
    assert!(p_of("e2").is_one());
    let p_e1 = p_of("e1");
    assert!(p_e1.is_positive() && p_e1 < Rat::one());
}

/// Inclusion-dependency (TGD) workload: repairs mix insertions (register
/// the missing customer) and deletions (drop the dangling order); the mass
/// accounting must stay exact.
#[test]
fn inclusion_dependency_mixed_repairs() {
    use ocqa::workload::{InclusionSpec, InclusionWorkload};
    let w = InclusionWorkload::generate(&InclusionSpec {
        customers: 4,
        valid_orders: 3,
        dangling_orders: 2,
        seed: 9,
    });
    let ctx = RepairContext::new(w.db.clone(), w.sigma.clone());
    let dist = explore::repair_distribution(
        &ctx,
        &UniformGenerator::new(),
        &explore::ExploreOptions {
            max_states: 2_000_000,
            record_chain: false,
        },
    )
    .unwrap();
    // TGD-only constraints: insertions always complete (no DC blocks
    // them), so no failing mass; total is exactly 1.
    let total = dist.success_mass() + dist.failing_mass().clone();
    assert!(total.is_one());
    assert!(dist.failing_mass().is_zero());
    // Some repair registers a ghost customer; some repair drops an order.
    let ghost = w.dangling_customers[0];
    let registers = dist
        .repairs()
        .iter()
        .any(|r| r.db.contains(&Fact::new("Customer", vec![ghost])));
    let drops = dist
        .repairs()
        .iter()
        .any(|r| r.db.relation(Symbol::intern("Order")).unwrap().len() < 5);
    assert!(registers, "insertion repair exists");
    assert!(drops, "deletion repair exists");
    // Valid orders survive every repair (nothing justifies touching them).
    for info in dist.repairs() {
        assert!(ctx.sigma().satisfied_by(&info.db));
        assert!(info.db.relation(Symbol::intern("Order")).unwrap().len() >= 3);
    }
}

/// A greedy repair loop driven through the public API terminates and
/// validates (the "downstream user" path).
#[test]
fn greedy_repair_via_public_api() {
    let w = PreferenceWorkload::generate(&ocqa::workload::PreferenceSpec {
        products: 8,
        conflicts: 3,
        extra_edges: 8,
        seed: 21,
    });
    let ctx = RepairContext::new(w.db, w.sigma);
    let mut state = RepairState::initial(ctx);
    let mut rng = StdRng::seed_from_u64(1);
    loop {
        let exts = state.extensions();
        if exts.is_empty() {
            break;
        }
        // Uniform random extension choice via the sampler's machinery.
        let gen = UniformGenerator::new();
        let w = gen.validated(&state, &exts).unwrap();
        let total: f64 = w.iter().map(|p| p.to_f64()).sum();
        assert!((total - 1.0).abs() < 1e-9);
        use rand::Rng;
        let idx = rng.random_range(0..exts.len());
        state = state.apply(&exts[idx]);
    }
    assert!(state.is_consistent());
    state.check_invariants().unwrap();
}
