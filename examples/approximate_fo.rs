//! Additive-error approximation for a first-order query beyond classical
//! CQA reach (§5, Theorem 9).
//!
//! Run with: `cargo run --example approximate_fo --release`
//!
//! Classical CQA is coNP-hard already for conjunctive queries, and the
//! universally-quantified query used here is far outside every known
//! tractable fragment. The operational approach samples repairing
//! sequences instead: `n = ⌈ln(2/δ)/(2ε²)⌉` random walks estimate the
//! probability of every answer within ±ε at confidence 1−δ, for *any* FO
//! query — here on an instance whose exact repair distribution is already
//! big enough to make exact exploration expensive.

use ocqa::prelude::*;
use ocqa::workload::{KeyConflictSpec, KeyConflictWorkload};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A key-violating relation: 30 clean tuples + 8 conflicting groups.
    let w = KeyConflictWorkload::generate(&KeyConflictSpec {
        clean_tuples: 30,
        conflict_groups: 8,
        group_size: 2,
        value_domain: 50,
        seed: 2718,
    });
    println!(
        "database: {} tuples, {} conflicting key groups",
        w.db.len(),
        w.conflict_keys.len()
    );
    // Exact exploration would enumerate 3^8 · 2^8 sequence interleavings;
    // the sampler needs only n walks.
    let (eps, delta) = (0.1, 0.1);
    let n = sample::sample_size(eps, delta);
    println!("ε = {eps}, δ = {delta} ⇒ n = {n} walks (the paper's 150)\n");

    let ctx = RepairContext::new(w.db.clone(), w.sigma.clone());
    let gen = UniformGenerator::deletions_only(); // non-failing (Prop. 8)

    // An FO query with universal quantification: keys whose *every*
    // surviving value is below 25.
    let q = parser::parse_query("(x) <- (exists y: R(x, y)) & (forall y: (!R(x, y) | Lt25(y)))")
        .unwrap();
    // Materialize the Lt25 predicate (a unary comparison table).
    let mut db = w.db.clone();
    {
        let mut schema_facts: Vec<Fact> = Vec::new();
        for v in 0..25i64 {
            schema_facts.push(Fact::new("Lt25", vec![Constant::int(v)]));
        }
        let schema = parser::infer_schema(
            &db.facts()
                .chain(schema_facts.iter().cloned())
                .collect::<Vec<_>>(),
            &w.sigma,
        )
        .unwrap();
        let mut db2 = Database::new(schema);
        for f in db.facts() {
            db2.insert(&f).unwrap();
        }
        for f in &schema_facts {
            db2.insert(f).unwrap();
        }
        db = db2;
    }
    let ctx = {
        let _ = ctx;
        RepairContext::new(db, w.sigma.clone())
    };

    let mut rng = StdRng::seed_from_u64(9);
    let (answers, walks) = sample::estimate_answers(&ctx, &gen, &q, eps, delta, &mut rng).unwrap();
    println!("estimated CP per answer tuple ({walks} walks):");
    let mut shown = 0;
    for (tuple, p) in answers.iter() {
        if *p > 0.02 {
            println!("  key {:?} → CP ≈ {p:.3}", tuple[0]);
            shown += 1;
        }
    }
    println!("({} tuples above the 2% floor)", shown);

    // For one conflicting key, compare against the exact value computed by
    // full exploration of that key's isolated conflict.
    let key = w.conflict_keys[0];
    let point_q = w.point_query(key);
    let mut rng = StdRng::seed_from_u64(123);
    let est = sample::estimate_tuple_probability(
        &ctx,
        &gen,
        &point_q,
        &[first_value_of(&ctx, key)],
        0.05,
        0.05,
        &mut rng,
    )
    .unwrap();
    println!(
        "\npoint query {point_q} on key {key}: CP ≈ {:.3} \
         ({} walks, {} failing)",
        est.value, est.samples, est.failed_walks
    );
}

fn first_value_of(ctx: &std::sync::Arc<RepairContext>, key: Constant) -> Constant {
    let rel = ctx.d0().relation(Symbol::intern("R")).unwrap();
    rel.select(&[Some(key), None])
        .next()
        .map(|row| row[1])
        .expect("conflicting key has tuples")
}
