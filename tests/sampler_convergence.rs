//! Convergence of the additive-error approximation scheme (Theorem 9)
//! against the exact engine — the reproduction of experiment E5.

use ocqa::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn setup(facts: &str, constraints: &str) -> Arc<RepairContext> {
    let facts = parser::parse_facts(facts).unwrap();
    let sigma = parser::parse_constraints(constraints).unwrap();
    let schema = parser::infer_schema(&facts, &sigma).unwrap();
    let db = Database::from_facts(schema, facts).unwrap();
    RepairContext::new(db, sigma)
}

/// A three-group key-conflict instance with asymmetric group sizes, so the
/// exact CP values are non-trivial fractions.
fn conflict_ctx() -> Arc<RepairContext> {
    setup(
        "R(a,1). R(a,2). R(b,1). R(b,2). R(b,3). R(c,7). S(a). S(q).",
        "R(x,y), R(x,z) -> y = z.",
    )
}

#[test]
fn estimates_within_epsilon_of_exact() {
    let ctx = conflict_ctx();
    let gen = UniformGenerator::new();
    let dist =
        explore::repair_distribution(&ctx, &gen, &explore::ExploreOptions::default()).unwrap();
    let q = parser::parse_query("(y) <- R('a', y)").unwrap();
    let mut rng = StdRng::seed_from_u64(77);
    for tuple in [[Constant::int(1)], [Constant::int(2)]] {
        let exact = answer::conditional_probability(&dist, &q, &tuple).to_f64();
        let est = sample::estimate_tuple_probability(&ctx, &gen, &q, &tuple, 0.05, 0.01, &mut rng)
            .unwrap();
        assert_eq!(est.failed_walks, 0);
        assert!(
            (est.value - exact).abs() <= est.epsilon,
            "tuple {tuple:?}: estimate {} vs exact {exact}",
            est.value
        );
    }
}

#[test]
fn error_shrinks_with_epsilon() {
    let ctx = conflict_ctx();
    let gen = UniformGenerator::new();
    let dist =
        explore::repair_distribution(&ctx, &gen, &explore::ExploreOptions::default()).unwrap();
    let q = parser::parse_query("(y) <- R('b', y)").unwrap();
    let tuple = [Constant::int(1)];
    let exact = answer::conditional_probability(&dist, &q, &tuple).to_f64();
    // Average the absolute error over several runs per ε; the mean error
    // must not grow as ε tightens (and must respect the bound).
    let mut mean_errors = Vec::new();
    for (i, eps) in [0.2, 0.1, 0.05].into_iter().enumerate() {
        let mut total = 0.0;
        let runs = 5;
        for r in 0..runs {
            let mut rng = StdRng::seed_from_u64(1000 + (i * runs + r) as u64);
            let est =
                sample::estimate_tuple_probability(&ctx, &gen, &q, &tuple, eps, 0.05, &mut rng)
                    .unwrap();
            total += (est.value - exact).abs();
            assert!(
                (est.value - exact).abs() <= eps + 1e-12,
                "ε={eps}: error {} exceeds bound",
                (est.value - exact).abs()
            );
        }
        mean_errors.push(total / runs as f64);
    }
    assert!(
        mean_errors[2] <= mean_errors[0] + 0.02,
        "mean error should not grow as ε tightens: {mean_errors:?}"
    );
}

#[test]
fn whole_query_estimation_matches_exact_support() {
    let ctx = conflict_ctx();
    let gen = UniformGenerator::new();
    let dist =
        explore::repair_distribution(&ctx, &gen, &explore::ExploreOptions::default()).unwrap();
    let q = parser::parse_query("(x) <- exists y: R(x, y)").unwrap();
    let exact = answer::operational_answers(&dist, &q);
    let mut rng = StdRng::seed_from_u64(5);
    let (estimated, _n) = sample::estimate_answers(&ctx, &gen, &q, 0.05, 0.01, &mut rng).unwrap();
    // Certain tuples (keys a, b, c always survive under M^u? No — pair
    // deletions can remove *all* facts of a group, so only c is certain).
    // Compare supports: every estimated tuple has exact CP > 0 and every
    // exact tuple with sizable CP is estimated.
    for (tuple, freq) in &estimated {
        let e = exact
            .iter()
            .find(|(t, _)| t == tuple)
            .map(|(_, p)| p.to_f64())
            .unwrap_or(0.0);
        assert!(
            (freq - e).abs() <= 0.05,
            "tuple {tuple:?}: {freq} vs exact {e}"
        );
    }
    for (tuple, p) in &exact {
        if p.to_f64() > 0.1 {
            assert!(
                estimated.iter().any(|(t, _)| t == tuple),
                "exact answer {tuple:?} (CP {p}) missing from estimate"
            );
        }
    }
}

/// The key-repair fast path (§5 scheme) agrees with its own exact product
/// distribution.
#[test]
fn key_sampler_matches_exact_product_distribution() {
    use ocqa::core::keyrepair::{GroupPolicy, KeyConfig, KeyRepairSampler};
    let ctx = conflict_ctx();
    let cfg = KeyConfig {
        relation: Symbol::intern("R"),
        key_cols: vec![0],
    };
    let sampler = KeyRepairSampler::new(ctx.d0(), &cfg, &GroupPolicy::KeepOneUniform).unwrap();
    let exact = sampler.exact_distribution();
    // Group sizes 2 and 3 ⇒ 6 outcomes.
    assert_eq!(exact.len(), 6);
    let mut rng = StdRng::seed_from_u64(8);
    let n = 3000;
    let mut counts = vec![0u64; exact.len()];
    for _ in 0..n {
        let dels = sampler.sample_deletions(&mut rng);
        let idx = exact
            .iter()
            .position(|(d, _)| *d == dels)
            .expect("sampled outcome in support");
        counts[idx] += 1;
    }
    for ((_, p), &count) in exact.iter().zip(&counts) {
        let freq = count as f64 / n as f64;
        let e = p.to_f64();
        let sigma = (e * (1.0 - e) / n as f64).sqrt();
        assert!(
            (freq - e).abs() <= 4.0 * sigma + 0.01,
            "outcome frequency {freq} vs exact {e}"
        );
    }
}
