//! Machine-readable engine latency snapshot: per-plan cold and cached
//! `answer` timings, emitted as one JSON document on stdout.
//!
//! The criterion benches (`engine_throughput` et al.) are the precision
//! instrument; this binary is the *trajectory* instrument — fast enough
//! to run on every PR and diff, feeding the checked-in
//! `BENCH_engine.json` snapshot the ROADMAP asks for. Each plan family
//! is measured on the workload that routes to it:
//!
//! * `key-repair` — the key-conflict workload under `uniform-deletions`
//!   (group-wise sampling fast path);
//! * `localized`  — the paper's §3 preference instance under `uniform`
//!   (per-component localized sampling);
//! * `monolithic` — the key-conflict workload with an explicit
//!   `monolithic` plan pin (full chain walks).
//!
//! Cold timings defeat the cache with a fresh seed per request; cached
//! timings repeat one warmed request, reported as the **minimum** mean
//! over [`CACHED_REPS`] repetitions (scheduler noise on a sub-10µs path
//! is strictly additive, so min-of-means is the stable estimator).
//! Units are mean microseconds.
//!
//! The `streaming` section replays the seeded fact-stream workload
//! against one subscriber: dirty steps time update-commit → pushed
//! estimate frame, clean steps time the silent (no-push, no-resample)
//! update path.
//!
//! The `saturation` section measures concurrent throughput: cold
//! monolithic answers under 8 client threads at 1/2/4/8 sampler
//! workers, and write-heavy WAL append rates with group commit off vs
//! on (see [`saturation`]).
//!
//! The `rebalance` section measures the elastic cluster's move cost:
//! mean wall-clock per database snapshot-shipped to a freshly joined
//! shard during a live 2→3 grow, at several database sizes (see
//! [`rebalance`]).
//!
//! The optional argument labels the snapshot (default `dev`); the
//! checked-in `BENCH_engine.json` is a JSON array of such documents,
//! one per recorded revision — append a run to extend the history:
//!
//! ```text
//! cargo run --release -p ocqa-bench --bin bench_engine -- v0.1.0 > snap.json
//! ```

use ocqa_bench::key_workload;
use ocqa_engine::json::Json;
use ocqa_engine::{
    Engine, EngineConfig, EngineRequest, EngineResponse, PlanKind, PushSession, QueryRef,
};
use ocqa_workload::{StreamSpec, StreamWorkload};
use std::sync::Arc;
use std::time::{Duration, Instant};

const COLD_ITERS: u64 = 40;
const CACHED_ITERS: u64 = 20_000;
const CACHED_REPS: usize = 5;

/// One measured scenario: a database, a query, a generator and an
/// optional plan pin that together route down one plan family.
struct Scenario {
    plan: &'static str,
    db: &'static str,
    facts: String,
    constraints: &'static str,
    query: &'static str,
    generator: &'static str,
    pin: Option<PlanKind>,
}

fn scenarios() -> Vec<Scenario> {
    let kv = key_workload(50, 16, 2, 7).db.to_string();
    vec![
        Scenario {
            plan: "key-repair",
            db: "kv",
            facts: kv.clone(),
            constraints: "R(x,y), R(x,z) -> y = z.",
            query: "(x) <- exists y: R(x, y)",
            generator: "uniform-deletions",
            pin: None,
        },
        Scenario {
            plan: "localized",
            db: "prefs",
            facts: "Pref(a,b). Pref(a,c). Pref(a,d). Pref(b,a). Pref(b,d). Pref(c,a).".into(),
            constraints: "Pref(x,y), Pref(y,x) -> false.",
            query: "(x) <- exists y: Pref(x,y)",
            generator: "uniform",
            pin: None,
        },
        Scenario {
            plan: "monolithic",
            db: "kv",
            facts: kv,
            constraints: "R(x,y), R(x,z) -> y = z.",
            query: "(x) <- exists y: R(x, y)",
            generator: "uniform-deletions",
            pin: Some(PlanKind::Monolithic),
        },
    ]
}

fn engine_for(s: &Scenario) -> Arc<Engine> {
    let engine = Engine::new(EngineConfig {
        workers: 4,
        cache_capacity: 256,
        ..EngineConfig::default()
    });
    let resp = engine.handle(EngineRequest::CreateDb {
        name: s.db.into(),
        facts: s.facts.clone(),
        constraints: s.constraints.into(),
    });
    assert!(matches!(resp, EngineResponse::Created(_)), "create failed");
    engine
}

fn answer(s: &Scenario, seed: u64) -> EngineRequest {
    EngineRequest::Answer {
        db: s.db.into(),
        query: QueryRef::Text(s.query.into()),
        generator: s.generator.into(),
        eps: 0.1,
        delta: 0.1,
        seed,
        plan: s.pin,
    }
}

/// Mean microseconds per `answer` over `iters` requests built by `req`.
fn mean_us(engine: &Engine, iters: u64, mut req: impl FnMut(u64) -> EngineRequest) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        let resp = engine.handle(req(i));
        let EngineResponse::Answer(a) = resp else {
            panic!("expected answer, got {resp:?}");
        };
        std::hint::black_box(a);
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

/// Streaming: one subscriber over the seeded fact stream. Dirty steps
/// (violation-set changes) are timed update-commit → estimate frame
/// read; clean steps are timed as plain updates — they must push
/// nothing, so their cost is the incremental violation check alone.
fn streaming() -> Json {
    let w = StreamWorkload::generate(&StreamSpec::default());
    let engine = Engine::new(EngineConfig {
        workers: 4,
        cache_capacity: 256,
        ..EngineConfig::default()
    });
    let resp = engine.handle(EngineRequest::CreateDb {
        name: "stream".into(),
        facts: w.facts.clone(),
        constraints: w.constraints.clone(),
    });
    assert!(matches!(resp, EngineResponse::Created(_)), "create failed");
    let session = PushSession::new();
    let sub = format!(
        r#"{{"op":"subscribe","db":"stream","query":"{}","eps":0.1,"delta":0.1,"seed":7}}"#,
        w.query
    );
    let resp = engine.handle_open_line(&sub, &session).to_string();
    assert!(resp.contains("\"ok\":true"), "subscribe failed: {resp}");

    let (mut push_total, mut pushes) = (Duration::ZERO, 0u64);
    let (mut clean_total, mut cleans) = (Duration::ZERO, 0u64);
    for step in &w.steps {
        let req = if step.delete.is_empty() {
            EngineRequest::Insert {
                db: "stream".into(),
                facts: step.insert.clone(),
            }
        } else {
            EngineRequest::Delete {
                db: "stream".into(),
                facts: step.delete.clone(),
            }
        };
        let t0 = Instant::now();
        let resp = engine.handle(req);
        assert!(matches!(resp, EngineResponse::Updated(_)), "step failed");
        if step.dirty {
            // The push is synchronous with the update; reading it back
            // closes the update-commit → frame-delivered interval.
            let frame = session.pop_wait().expect("estimate frame");
            push_total += t0.elapsed();
            pushes += 1;
            std::hint::black_box(frame);
        } else {
            clean_total += t0.elapsed();
            cleans += 1;
        }
    }
    let mean = |total: Duration, n: u64| {
        Json::Num((total.as_secs_f64() * 1e6 / n as f64 * 100.0).round() / 100.0)
    };
    Json::obj([
        ("steps", Json::from(w.steps.len() as u64)),
        ("pushed", Json::from(pushes)),
        ("push_us", mean(push_total, pushes)),
        ("clean_update_us", mean(clean_total, cleans)),
    ])
}

/// Saturation: cold monolithic `answer` throughput under 8 concurrent
/// client threads at 1/2/4/8 sampler workers (distinct seeds per
/// request, so nothing caches or coalesces — every request runs its full
/// walk budget on the sampler pool), plus write-heavy WAL append
/// throughput with group commit off vs on (8 concurrent mutators; off
/// pays one `fsync` per append, on shares one batch `fsync` per window).
/// Rates are requests (or appends) per second; scaling beyond the
/// machine's core count only shows on machines that have the cores.
fn saturation() -> Json {
    const CLIENTS: usize = 8;
    const ANSWERS_PER_CLIENT: u64 = 5;
    const APPENDS_PER_CLIENT: u64 = 32;

    let scenario = scenarios().pop().expect("monolithic scenario");
    assert_eq!(scenario.plan, "monolithic");
    let mut answer_rates = std::collections::BTreeMap::new();
    for workers in [1usize, 2, 4, 8] {
        let engine = Engine::new(EngineConfig {
            workers,
            cache_capacity: 256,
            ..EngineConfig::default()
        });
        let resp = engine.handle(EngineRequest::CreateDb {
            name: scenario.db.into(),
            facts: scenario.facts.clone(),
            constraints: scenario.constraints.into(),
        });
        assert!(matches!(resp, EngineResponse::Created(_)), "create failed");
        let start = Instant::now();
        std::thread::scope(|scope| {
            for client in 0..CLIENTS {
                let (engine, scenario) = (&engine, &scenario);
                scope.spawn(move || {
                    for i in 0..ANSWERS_PER_CLIENT {
                        let seed = 10_000 + client as u64 * 1_000 + i;
                        let resp = engine.handle(answer(scenario, seed));
                        let EngineResponse::Answer(a) = resp else {
                            panic!("expected answer, got {resp:?}");
                        };
                        assert!(!a.cached, "saturation request unexpectedly cached");
                        std::hint::black_box(a);
                    }
                });
            }
        });
        let rate = CLIENTS as f64 * ANSWERS_PER_CLIENT as f64 / start.elapsed().as_secs_f64();
        answer_rates.insert(
            format!("workers_{workers}"),
            Json::Num((rate * 10.0).round() / 10.0),
        );
    }

    let mut append_rates = std::collections::BTreeMap::new();
    for (label, group_commit_us) in [("group_commit_off", 0u64), ("group_commit_2000us", 2_000)] {
        let dir = std::env::temp_dir().join(format!(
            "ocqa-bench-saturation-{}-{group_commit_us}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(
            ocqa_store::Store::open(
                &dir,
                ocqa_store::StoreOptions {
                    group_commit_us,
                    ..ocqa_store::StoreOptions::default()
                },
            )
            .expect("open bench store"),
        );
        let start = Instant::now();
        std::thread::scope(|scope| {
            for client in 0..CLIENTS {
                let store = store.clone();
                scope.spawn(move || {
                    for i in 0..APPENDS_PER_CLIENT {
                        let ordinal = client as u64 * APPENDS_PER_CLIENT + i + 1;
                        store
                            .append(&ocqa_store::WalRecord::Prepare {
                                text: format!("(x) <- R(x, {ordinal})"),
                                ordinal,
                            })
                            .expect("append");
                    }
                });
            }
        });
        let rate = CLIENTS as f64 * APPENDS_PER_CLIENT as f64 / start.elapsed().as_secs_f64();
        append_rates.insert(label.to_string(), Json::Num((rate * 10.0).round() / 10.0));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    Json::obj([
        ("clients", Json::from(CLIENTS as u64)),
        ("answers_per_client", Json::from(ANSWERS_PER_CLIENT)),
        ("appends_per_client", Json::from(APPENDS_PER_CLIENT)),
        ("cold_monolithic_rps", Json::Obj(answer_rates)),
        ("wal_appends_per_s", Json::Obj(append_rates)),
    ])
}

/// Rebalance: the elastic cluster's move cost per database size. A
/// 2-upstream routed cluster (real TCP upstreams, as `ocqa route` runs)
/// is grown to 3 live via the admin op; the reported figure is mean
/// wall-clock milliseconds per moved database — snapshot fetch off the
/// old shard, ship, install on the new one, epoch commit and source
/// drop — amortized over however many of the databases the HRW grow
/// reassigns.
fn rebalance() -> Json {
    use ocqa_engine::{serve_listener, RouteProxy};
    const NAMES: usize = 16;
    let mut out = std::collections::BTreeMap::new();
    for facts_n in [100usize, 1_000, 4_000] {
        let facts: String = (0..facts_n)
            .map(|i| format!("R({i}, {}). ", i * 10))
            .collect();
        let addrs: Vec<String> = (0..3)
            .map(|_| {
                let engine = Engine::new(EngineConfig {
                    workers: 2,
                    cache_capacity: 64,
                    ..EngineConfig::default()
                });
                let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
                let addr = listener.local_addr().expect("addr").to_string();
                std::thread::spawn(move || {
                    let _ = serve_listener(engine, listener);
                });
                addr
            })
            .collect();
        let proxy = RouteProxy::connect(addrs[..2].to_vec()).expect("connect proxy");
        for k in 0..NAMES {
            let resp = proxy.handle_line(&format!(
                r#"{{"op":"create_db","name":"mv{k:02}","facts":"{facts}","constraints":"R(x,y), R(x,z) -> y = z."}}"#
            ));
            assert!(resp.contains("\"ok\":true"), "create failed: {resp}");
        }
        let start = Instant::now();
        let resp = proxy.handle_line(&format!(r#"{{"op":"rebalance","add":"{}"}}"#, addrs[2]));
        let elapsed = start.elapsed();
        assert!(resp.contains("\"ok\":true"), "rebalance failed: {resp}");
        // The moved databases are the only `mv…` names in the response.
        let moved = resp.matches("\"mv").count();
        assert!(moved > 0, "grow moved nothing: {resp}");
        let per_move_ms = elapsed.as_secs_f64() * 1e3 / moved as f64;
        out.insert(
            format!("facts_{facts_n}"),
            Json::obj([
                ("moved", Json::from(moved as u64)),
                ("move_ms", Json::Num((per_move_ms * 100.0).round() / 100.0)),
            ]),
        );
    }
    Json::Obj(out)
}

fn main() {
    let rev = std::env::args().nth(1).unwrap_or_else(|| "dev".to_string());
    let mut plans = std::collections::BTreeMap::new();
    for s in scenarios() {
        let engine = engine_for(&s);
        // Cold: a fresh seed per request defeats the cache; every
        // iteration pays the full walk budget on the pool.
        let cold_us = mean_us(&engine, COLD_ITERS, |i| answer(&s, 1000 + i));
        // Cached: warm one key, then hammer it; every iteration is a hit.
        let warm = engine.handle(answer(&s, 1));
        let EngineResponse::Answer(payload) = warm else {
            panic!("warmup failed");
        };
        assert_eq!(payload.plan.as_str(), s.plan, "scenario routed off-plan");
        let cached_us = (0..CACHED_REPS)
            .map(|_| mean_us(&engine, CACHED_ITERS, |_| answer(&s, 1)))
            .fold(f64::INFINITY, f64::min);
        plans.insert(
            s.plan.to_string(),
            Json::obj([
                ("cold_us", Json::Num((cold_us * 100.0).round() / 100.0)),
                ("cached_us", Json::Num((cached_us * 100.0).round() / 100.0)),
            ]),
        );
    }
    let doc = Json::obj([
        ("bench", Json::from("engine_answer_latency")),
        ("rev", Json::from(rev)),
        (
            "config",
            Json::obj([
                ("workers", Json::from(4u64)),
                ("cache", Json::from(256u64)),
                ("cold_iters", Json::from(COLD_ITERS)),
                ("cached_iters", Json::from(CACHED_ITERS)),
                ("cached_reps", Json::from(CACHED_REPS as u64)),
                ("eps", Json::Num(0.1)),
                ("delta", Json::Num(0.1)),
            ]),
        ),
        ("plans", Json::Obj(plans)),
        ("rebalance", rebalance()),
        ("streaming", streaming()),
        ("saturation", saturation()),
    ]);
    println!("{doc}");
}
