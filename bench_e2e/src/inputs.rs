//! Inputs, all derived from `--seed`: the databases each workload
//! installs and the request lines its clients send. The program under
//! test only ever sees these generated lines.

use ocqa_core::sample::derive_seed;
use ocqa_data::Fact;
use ocqa_engine::json::Json;
use ocqa_engine::Router;
use ocqa_workload::{KeyConflictSpec, KeyConflictWorkload, PreferenceSpec, PreferenceWorkload};

pub const KC_SIGMA: &str = "R(x,y), R(x,z) -> y = z.";
pub const KC_QUERY: &str = "(x) <- exists y: R(x, y)";
pub const PF_SIGMA: &str = "Pref(x,y), Pref(y,x) -> false.";
pub const PF_QUERY: &str = "(x) <- exists y: Pref(x,y)";
pub const EPS: f64 = 0.1;
pub const DELTA: f64 = 0.1;

/// One database a workload installs, with the facts its writes toggle.
pub struct DbInput {
    pub name: String,
    pub facts: String,
    pub constraints: &'static str,
    pub query: &'static str,
    /// Facts whose insertion leaves the violation set unchanged.
    pub clean_pool: Vec<String>,
    /// Facts whose insertion creates violations (and so invalidates
    /// cached answers' estimates and pushes to subscribers).
    pub dirty_pool: Vec<String>,
    /// Keys (first query column) that sit in a conflict when the
    /// database is installed; every other answer tuple is certain.
    pub conflict_keys: Vec<i64>,
}

impl DbInput {
    /// The exact probability of each key of a freshly installed
    /// key-conflict database: a conflict key survives with
    /// `exact_conflict`, every other tuple is certain.
    pub fn exact_of(&self, exact_conflict: f64) -> impl Fn(i64) -> f64 + '_ {
        move |key| match self.conflict_keys.contains(&key) {
            true => exact_conflict,
            false => 1.0,
        }
    }
}

/// A key-conflict database: `clean` tuples with unique keys plus
/// `groups` violating pairs, Σ = key on `R`. Pool facts use keys and
/// values outside the generator's domain, so they never collide with
/// installed facts by accident.
pub fn key_conflict(name: &str, clean: usize, groups: usize, seed: u64, pool: usize) -> DbInput {
    let w = KeyConflictWorkload::generate(&KeyConflictSpec {
        clean_tuples: clean,
        conflict_groups: groups,
        group_size: 2,
        value_domain: 1_000,
        seed,
    });
    DbInput {
        name: name.to_string(),
        facts: w.db.to_string(),
        constraints: KC_SIGMA,
        query: KC_QUERY,
        clean_pool: (0..pool)
            .map(|j| format!("R({}, 1).", 100_000 + j))
            .collect(),
        // A second value on a clean key: one new violating pair.
        dirty_pool: (0..pool)
            .map(|j| format!("R({}, {}).", j % clean, 5_000 + j))
            .collect(),
        conflict_keys: (clean..clean + groups).map(|k| k as i64).collect(),
    }
}

/// An `ocqa-workload` preference tournament (10 products, 3 planted
/// symmetric conflicts, 10 one-way edges), Σ = asymmetry of `Pref`.
pub fn preference(name: &str, seed: u64, pool: usize) -> DbInput {
    let w = PreferenceWorkload::generate(&PreferenceSpec {
        products: 10,
        conflicts: 3,
        extra_edges: 10,
        seed,
    });
    // Reversing a one-way edge plants a fresh symmetric conflict.
    let one_way: Vec<Fact> =
        w.db.canonical_facts()
            .into_iter()
            .filter(|f| {
                !w.db
                    .contains(&Fact::new("Pref", vec![f.args()[1], f.args()[0]]))
            })
            .collect();
    DbInput {
        name: name.to_string(),
        facts: w.db.to_string(),
        constraints: PF_SIGMA,
        query: PF_QUERY,
        clean_pool: (0..pool)
            .map(|j| format!("Pref({}, {}).", 1_000 + j, 2_000 + j))
            .collect(),
        dirty_pool: one_way
            .iter()
            .take(pool)
            .map(|f| format!("Pref({}, {}).", f.args()[1], f.args()[0]))
            .collect(),
        conflict_keys: Vec::new(),
    }
}

pub fn create_line(db: &DbInput) -> String {
    Json::obj([
        ("op", "create_db".into()),
        ("name", db.name.clone().into()),
        ("facts", db.facts.clone().into()),
        ("constraints", db.constraints.into()),
    ])
    .to_string()
}

/// An `answer` request at the paper's ε = δ = 0.1 (150 walks). `plan`
/// `None` leaves the choice to the planner.
pub fn answer_line(db: &DbInput, seed: u64, plan: Option<&str>) -> String {
    let mut v = Json::obj([
        ("op", "answer".into()),
        ("db", db.name.clone().into()),
        ("query", db.query.into()),
        ("generator", "uniform".into()),
        ("eps", EPS.into()),
        ("delta", DELTA.into()),
        ("seed", seed.into()),
    ]);
    if let Some(plan) = plan {
        v.set("plan", plan.into());
    }
    v.to_string()
}

pub fn write_line(insert: bool, db: &str, fact: &str) -> String {
    Json::obj([
        ("op", if insert { "insert" } else { "delete" }.into()),
        ("db", db.into()),
        ("facts", fact.into()),
    ])
    .to_string()
}

pub fn subscribe_line(db: &DbInput) -> String {
    Json::obj([
        ("op", "subscribe".into()),
        ("db", db.name.clone().into()),
        ("query", db.query.into()),
        ("generator", "uniform".into()),
        ("eps", EPS.into()),
        ("delta", DELTA.into()),
        ("seed", 1u64.into()),
    ])
    .to_string()
}

/// `hot_read`: four key-conflict databases of 50 clean + 16 pairs.
pub fn hot_read_dbs(seed: u64) -> Vec<DbInput> {
    (0..4)
        .map(|i| key_conflict(&format!("hot{i}"), 50, 16, derive_seed(seed, i), 0))
        .collect()
}

/// `cold_walk`: one database of 50 clean + 8 pairs — also the instance
/// every in-process kernel probe runs on.
pub fn cold_walk_db(seed: u64) -> DbInput {
    key_conflict("cold", 50, 8, derive_seed(seed, 100), 0)
}

/// `durable_write`: one database of 200 clean + 16 pairs per connection.
pub fn durable_write_dbs(seed: u64, pool: usize) -> Vec<DbInput> {
    (0..2)
        .map(|i| {
            let seed = derive_seed(seed, 200 + i);
            key_conflict(&format!("dw{i}"), 200, 16, seed, pool / 2)
        })
        .collect()
}

/// `routed_mixed`: four key-conflict and four preference databases,
/// interleaved in popularity order, named so that rendezvous hashing
/// lands four on each of the two shards (two of each kind).
pub fn routed_mixed_dbs(seed: u64) -> Vec<DbInput> {
    let router = Router::new(2);
    let mut taken = [[0usize; 2]; 2];
    let mut next_suffix = 0usize;
    let mut name_for = |kind: usize, prefix: &str| loop {
        let name = format!("{prefix}{next_suffix}");
        next_suffix += 1;
        let shard = router.shard_for(&name);
        if taken[kind][shard] < 2 {
            taken[kind][shard] += 1;
            return name;
        }
    };
    (0..4u64)
        .flat_map(|i| {
            let kc = key_conflict(&name_for(0, "kc"), 50, 16, derive_seed(seed, 300 + i), 8);
            // The tournaments are the same on every seed: a generator
            // seed changes which conflicts share a product, and with
            // that what a localized answer costs. The run's seed varies
            // the traffic, not the shape of the data.
            let pf = preference(&name_for(1, "pf"), 400 + i, 8);
            [kc, pf]
        })
        .collect()
}
