//! In-process per-layer probes: spans around each layer's public
//! functions, run on the `cold_walk` database of the run's seed (50
//! clean tuples + 8 conflicting pairs, uniform generator, projection
//! query) — the instance whose cold answer the walk kernel dominates.
//! With a fixed seed the counts here repeat exactly.

use crate::inputs::{self, DbInput, DELTA, EPS, KC_QUERY, KC_SIGMA};
use crate::report::Metrics;
use crate::stats::median;
use ocqa_core::explore::{repair_distribution, ExploreOptions};
use ocqa_core::sample::{derive_seed, sample_size, sample_tally, SampleTally};
use ocqa_core::{answer, ChainGenerator, RepairContext, RepairState, UniformGenerator};
use ocqa_data::{Constant, Database};
use ocqa_engine::{
    AnswerCache, CacheKey, Catalog, DbPlan, Engine, EngineConfig, EngineRequest, EngineResponse,
    PlanKind, QueryRef, SamplerPool,
};
use ocqa_logic::{incremental, parser, Query, ViolationSet};
use ocqa_num::{IBig, Rat, UBig};
use ocqa_store::{Store, StoreOptions, WalRecord};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions of each timed pass; the reported figure is their median.
const PASSES: usize = 5;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median over [`PASSES`] of the mean microseconds per call of `f`
/// over `iters` back-to-back calls.
fn per_call_us(iters: u32, mut f: impl FnMut()) -> f64 {
    let passes: Vec<f64> = (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            us(start.elapsed()) / f64::from(iters)
        })
        .collect();
    median(&passes)
}

/// The exact draw of `ocqa_core::sample`'s private `draw_index`, so the
/// instrumented walk takes the same path as `sample_walk` for a seed.
fn draw_index(weights: &[Rat], rng: &mut StdRng) -> usize {
    let threshold = Rat::new(
        IBig::from(rng.next_u64()),
        IBig::from(UBig::one().shl_bits(64)),
    );
    let mut acc = Rat::zero();
    for (i, w) in weights.iter().enumerate() {
        acc += w;
        if threshold < acc {
            return i;
        }
    }
    weights
        .iter()
        .rposition(Rat::is_positive)
        .expect("a distribution has a positive weight")
}

/// Time spent in each part of the walk loop over one batch of walks.
#[derive(Default)]
struct WalkParts {
    extensions: Duration,
    weights: Duration,
    apply: Duration,
    leaf: Duration,
    total: Duration,
    steps: u64,
    failed: u64,
}

/// `sample_tally`'s loop re-run through the same public calls with a
/// clock read between them. Returns the tally too, which must equal the
/// uninstrumented one for the same seed.
fn instrumented_walks(
    ctx: &Arc<RepairContext>,
    gen: &dyn ChainGenerator,
    query: &Query,
    walks: u64,
    seed: u64,
) -> (WalkParts, SampleTally) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut parts = WalkParts::default();
    let mut tally = SampleTally {
        walks,
        ..SampleTally::default()
    };
    let start = Instant::now();
    for _ in 0..walks {
        let mut state = RepairState::initial(ctx.clone());
        loop {
            let t0 = Instant::now();
            let exts = state.extensions();
            let t1 = Instant::now();
            parts.extensions += t1 - t0;
            if exts.is_empty() {
                break;
            }
            let weights = gen.validated(&state, &exts).expect("uniform weights");
            let t2 = Instant::now();
            parts.weights += t2 - t1;
            let idx = draw_index(&weights, &mut rng);
            let t3 = Instant::now();
            state = state.apply(&exts[idx]);
            parts.apply += t3.elapsed();
            parts.steps += 1;
        }
        if state.is_consistent() {
            // `sample_walk` hands the repair out as an owned database.
            let repair = state.db().clone();
            let t = Instant::now();
            for tuple in query.answers(&repair) {
                *tally.counts.entry(tuple).or_insert(0) += 1;
            }
            parts.leaf += t.elapsed();
        } else {
            parts.failed += 1;
            tally.failed_walks += 1;
        }
    }
    parts.total = start.elapsed();
    (parts, tally)
}

/// Counts estimates further than ε from the exact probability: conflict
/// keys against `exact_conflict`, every other tuple against 1.
pub struct Accuracy {
    pub estimates: u64,
    pub outside: u64,
}

impl Accuracy {
    pub fn new() -> Accuracy {
        Accuracy {
            estimates: 0,
            outside: 0,
        }
    }

    pub fn observe(&mut self, estimate: f64, exact: f64) {
        self.estimates += 1;
        if (estimate - exact).abs() > EPS {
            self.outside += 1;
        }
    }

    pub fn absorb(&mut self, other: &Accuracy) {
        self.estimates += other.estimates;
        self.outside += other.outside;
    }

    pub fn share(&self) -> f64 {
        if self.estimates == 0 {
            0.0
        } else {
            self.outside as f64 / self.estimates as f64
        }
    }
}

/// The exact operational probability that a key with two conflicting
/// tuples keeps a tuple, under the uniform generator: `core::explore`
/// on one conflict group alone (groups are independent components).
pub fn exact_pair_survival() -> f64 {
    let ctx = context("R(0, 1). R(0, 2).", KC_SIGMA);
    let dist = repair_distribution(&ctx, &UniformGenerator::new(), &ExploreOptions::default())
        .expect("a two-fact instance explores");
    let query = parser::parse_query(KC_QUERY).expect("projection query");
    answer::operational_answers(&dist, &query)
        .first()
        .map_or(0.0, |(_, p)| p.to_f64())
}

/// Exact operational answers of a small instance, by full exploration.
pub fn exact_answers(db: &DbInput) -> Vec<(Vec<Constant>, f64)> {
    let ctx = context(&db.facts, db.constraints);
    let dist = repair_distribution(&ctx, &UniformGenerator::new(), &ExploreOptions::default())
        .expect("a benchmark preference instance explores");
    let query = parser::parse_query(db.query).expect("benchmark query");
    answer::operational_answers(&dist, &query)
        .into_iter()
        .map(|(t, p)| (t, p.to_f64()))
        .collect()
}

fn context(facts: &str, constraints: &str) -> Arc<RepairContext> {
    let facts = parser::parse_facts(facts).expect("benchmark facts");
    let sigma = parser::parse_constraints(constraints).expect("benchmark constraints");
    let schema = parser::infer_schema(&facts, &sigma).expect("benchmark schema");
    let db = Database::from_facts(schema, facts).expect("facts fit the schema");
    RepairContext::new(db, sigma)
}

fn tally_accuracy(acc: &mut Accuracy, tally: &SampleTally, db: &DbInput, exact_conflict: f64) {
    for (tuple, p) in tally.frequencies() {
        let conflict =
            matches!(tuple.first(), Some(Constant::Int(k)) if db.conflict_keys.contains(k));
        acc.observe(p, if conflict { exact_conflict } else { 1.0 });
    }
}

fn answer_request(db: &str, seed: u64, plan: Option<PlanKind>) -> EngineRequest {
    EngineRequest::Answer {
        db: db.into(),
        query: QueryRef::Text(KC_QUERY.into()),
        generator: "uniform".into(),
        eps: EPS,
        delta: DELTA,
        seed,
        plan,
    }
}

/// Runs every probe and records its metric; returns the kernel's
/// estimates against exact probabilities (`exact`: what
/// [`exact_pair_survival`] returned). `scratch` is a directory the store
/// probe may create a WAL in.
pub fn run(seed: u64, exact: f64, scratch: &Path, m: &mut Metrics) -> Result<Accuracy, String> {
    let db = inputs::cold_walk_db(seed);
    let ctx = context(&db.facts, db.constraints);
    let gen: Arc<dyn ChainGenerator> = Arc::new(UniformGenerator::new());
    let query = Arc::new(parser::parse_query(KC_QUERY).map_err(|e| e.to_string())?);
    let walks = sample_size(EPS, DELTA);
    let mut accuracy = Accuracy::new();

    // core: the plain walk against the same walk with clocks between
    // its parts, alternated so drift hits both alike.
    let mut plain_us = Vec::new();
    let mut parts_us: [Vec<f64>; 5] = Default::default();
    let (mut steps, mut failed) = (0, 0);
    let mut parts_over_walk = Vec::new();
    for pass in 0..PASSES as u64 {
        let walk_seed = derive_seed(seed, pass);
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(walk_seed);
        let plain =
            sample_tally(&ctx, gen.as_ref(), &query, walks, &mut rng).map_err(|e| e.to_string())?;
        plain_us.push(us(start.elapsed()) / walks as f64);
        let (parts, tally) = instrumented_walks(&ctx, gen.as_ref(), &query, walks, walk_seed);
        if tally.counts != plain.counts {
            return Err("instrumented walk diverged from sample_tally for the same seed".into());
        }
        tally_accuracy(&mut accuracy, &plain, &db, exact);
        let per_step = |d: Duration| us(d) / parts.steps as f64;
        let known = parts.extensions + parts.weights + parts.apply + parts.leaf;
        parts_us[0].push(per_step(parts.extensions));
        parts_us[1].push(per_step(parts.weights));
        parts_us[2].push(per_step(parts.apply));
        parts_us[3].push(per_step(parts.total.saturating_sub(known)));
        parts_us[4].push(us(parts.leaf) / walks as f64);
        // Paired with the plain pass just before it, so drift between
        // passes cancels.
        parts_over_walk.push(us(parts.total) / walks as f64 / plain_us[pass as usize]);
        steps += parts.steps;
        failed += parts.failed;
    }
    let total_walks = walks * PASSES as u64;
    m.put("core.walk_us", "us", median(&plain_us), total_walks);
    m.put(
        "core.steps_per_walk",
        "count",
        steps as f64 / total_walks as f64,
        total_walks,
    );
    m.put("core.walks_per_answer", "count", walks as f64, 1);
    m.put(
        "core.failed_walk_share",
        "share",
        failed as f64 / total_walks as f64,
        total_walks,
    );
    for (name, values) in [
        "core.extensions_us",
        "core.weights_us",
        "core.apply_us",
        "core.draw_us",
    ]
    .into_iter()
    .zip(&parts_us)
    {
        m.put(name, "us", median(values), steps);
    }
    m.put("core.leaf_eval_us", "us", median(&parts_us[4]), total_walks);
    // 1 when the parts add up to the walk; past ±0.05 the split above is
    // not to be trusted.
    let parts_over_walk = median(&parts_over_walk);
    m.put(
        "core.parts_over_walk",
        "ratio",
        parts_over_walk,
        PASSES as u64,
    );

    // core: the two fast plans' kernels, through the planner's tasks.
    let plan = DbPlan::build(&ctx);
    for (name, kind) in [
        ("core.keyrepair_walk_us", PlanKind::KeyRepair),
        ("core.localized_walk_us", PlanKind::Localized),
    ] {
        let task = plan.task(kind, gen.clone()).map_err(|e| e.to_string())?;
        let mut pass_us = Vec::new();
        for pass in 0..PASSES as u64 {
            let start = Instant::now();
            let tally = task
                .run_chunk(&query, walks, derive_seed(seed, 10 + pass))
                .map_err(|e| format!("{kind} chunk: {e}"))?;
            pass_us.push(us(start.elapsed()) / walks as f64);
            tally_accuracy(&mut accuracy, &tally, &db, exact);
        }
        m.put(name, "us", median(&pass_us), total_walks);
    }

    // engine.pool: the cold_walk budget on two workers and on one.
    let pool_ms = |workers: usize| -> Result<f64, String> {
        let pool = SamplerPool::new(workers);
        let mut pass_ms = Vec::new();
        for pass in 0..3 {
            let start = Instant::now();
            let tally = pool
                .run_monolithic(&ctx, &gen, &query, walks, derive_seed(seed, 20 + pass))
                .map_err(|e| e.to_string())?;
            pass_ms.push(us(start.elapsed()) / 1e3);
            black_box(tally);
        }
        Ok(median(&pass_ms))
    };
    let (two, one) = (pool_ms(2)?, pool_ms(1)?);
    m.put("engine.pool.run_ms", "ms", two, 3);
    m.put("engine.pool.speedup_2w", "ratio", one / two, 3);

    // logic, data, num.
    let sigma = ctx.sigma();
    let d0 = ctx.d0();
    m.put(
        "logic.violations_full_us",
        "us",
        per_call_us(20, || {
            black_box(ViolationSet::compute(sigma, d0));
        }),
        20,
    );
    let added = parser::parse_facts("R(0, 5000).").map_err(|e| e.to_string())?;
    let mut after = d0.clone();
    after.insert(&added[0]).map_err(|e| e.to_string())?;
    let v0 = ctx.initial_violations();
    m.put(
        "logic.incremental_us",
        "us",
        per_call_us(200, || {
            black_box(incremental::update_violations(
                sigma,
                &after,
                v0,
                &added,
                &[],
            ));
        }),
        200,
    );
    m.put(
        "logic.query_eval_us",
        "us",
        per_call_us(200, || {
            black_box(query.answers(d0));
        }),
        200,
    );
    m.put(
        "logic.parse_query_us",
        "us",
        per_call_us(200, || {
            black_box(parser::parse_query(KC_QUERY).is_ok());
        }),
        200,
    );
    m.put(
        "data.clone_us",
        "us",
        per_call_us(200, || {
            black_box(d0.clone());
        }),
        200,
    );
    // The draw's arithmetic: cumulative `+=` and `<` over k weights of
    // 1/k, for every k up to 64 (2080 add-and-compare pairs per call).
    let threshold = Rat::ratio(1, 3);
    let rat_us = per_call_us(20, || {
        for k in 1..=64 {
            let w = Rat::ratio(1, k);
            let mut acc = Rat::zero();
            for _ in 0..k {
                acc += &w;
                black_box(threshold < acc);
            }
        }
    });
    m.put("num.rat_add_cmp_ns", "ns", rat_us * 1e3 / 2080.0, 20 * 2080);

    // engine.cache: lookups of 64 resident keys.
    let mut cache = AnswerCache::new(1024);
    let keys: Vec<CacheKey> = (0..64)
        .map(|i| CacheKey {
            db: format!("hot{}", i % 4),
            version: 1,
            query: KC_QUERY.into(),
            generator: "uniform".into(),
            plan: PlanKind::KeyRepair,
            eps_bits: EPS.to_bits(),
            delta_bits: DELTA.to_bits(),
            seed: i / 4,
        })
        .collect();
    for key in &keys {
        cache.insert(key.clone(), Arc::new(SampleTally::default()));
    }
    m.put(
        "engine.cache.get_us",
        "us",
        per_call_us(100, || {
            for key in &keys {
                black_box(cache.get(key).is_some());
            }
        }) / 64.0,
        100 * 64,
    );

    // engine.shard: a cached hit per filling plan, and explain.
    let engine = Engine::new(EngineConfig {
        workers: 2,
        cache_capacity: 1024,
        ..EngineConfig::default()
    });
    let created = engine.handle(EngineRequest::CreateDb {
        name: "cold".into(),
        facts: db.facts.clone(),
        constraints: KC_SIGMA.into(),
    });
    if !matches!(created, EngineResponse::Created(_)) {
        return Err(format!("probe engine refused the database: {created:?}"));
    }
    for kind in [
        PlanKind::KeyRepair,
        PlanKind::Localized,
        PlanKind::Monolithic,
    ] {
        let cached = |resp: EngineResponse| matches!(resp, EngineResponse::Answer(a) if a.cached);
        engine.handle(answer_request("cold", 1, Some(kind)));
        if !cached(engine.handle(answer_request("cold", 1, Some(kind)))) {
            return Err(format!("probe engine did not cache a {kind} answer"));
        }
        m.put(
            &format!("engine.shard.hit_us.{kind}"),
            "us",
            per_call_us(2_000, || {
                black_box(engine.handle(answer_request("cold", 1, Some(kind))));
            }),
            2_000,
        );
    }
    m.put(
        "engine.planner.explain_us",
        "us",
        per_call_us(500, || {
            black_box(engine.handle(EngineRequest::Explain {
                db: "cold".into(),
                generator: "uniform".into(),
            }));
        }),
        500,
    );

    // engine.catalog: one-fact updates, inserting then deleting.
    let mut catalog = Catalog::new();
    catalog
        .create("cold", &db.facts, KC_SIGMA)
        .map_err(|e| e.to_string())?;
    for (name, fact) in [
        ("engine.catalog.update_clean_us", "R(100000, 1)."),
        ("engine.catalog.update_dirty_us", "R(0, 5000)."),
    ] {
        let mut failed = false;
        let value = per_call_us(100, || {
            failed |= catalog.update("cold", fact, "").is_err();
            failed |= catalog.update("cold", "", fact).is_err();
        }) / 2.0;
        if failed {
            return Err(format!("probe catalog refused {fact}"));
        }
        m.put(name, "us", value, 200);
    }

    // store: one-fact update records, fsynced one by one.
    let dir = scratch.join("probe-store");
    let store = Store::open(&dir, StoreOptions::default()).map_err(|e| e.to_string())?;
    let mut version = 0;
    let mut append_failed = false;
    let append_us = per_call_us(20, || {
        version += 1;
        append_failed |= store
            .append(&WalRecord::Update {
                db: "cold".into(),
                version,
                added: added.clone(),
                removed: Vec::new(),
            })
            .is_err();
    });
    if append_failed {
        return Err("probe store refused an append".into());
    }
    m.put("store.append_us", "us", append_us, 100);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(accuracy)
}
