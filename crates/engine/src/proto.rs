//! The request/response API spoken by `ocqa serve`.
//!
//! One JSON object per line. Every request carries an `"op"`; every
//! response is `{"ok":true,…}` or `{"ok":false,"error":…}`.
//!
//! ```json
//! {"op":"answer","db":"prefs","query":"(x) <- exists y: Pref(x,y)","eps":0.1,"delta":0.1,"seed":7}
//! {"ok":true,"answers":[{"tuple":["a"],"p":0.45,"p_cond":0.45}],"walks":150,"failed_walks":0,"cached":false,"coalesced":false,"db_version":1,"plan":"localized","cache_hits":0,"cache_misses":1,"shard":0}
//! ```
//!
//! The `shard` field (added by the front door) reports which shard
//! served a routed request; `list` entries carry their database's shard.

use crate::cache::CacheStats;
use crate::catalog::{DatabaseInfo, UpdateOutcome};
use crate::error::EngineError;
use crate::json::Json;
use crate::obs::MetricsSnapshot;
use crate::planner::{Candidate, DbStats, PlanKind};
use ocqa_data::Constant;

/// How an `answer` request names its query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryRef {
    /// Inline query source text.
    Text(String),
    /// A handle returned by `prepare`.
    Prepared(String),
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineRequest {
    /// Liveness check.
    Ping,
    /// Create a named database from fact/constraint text.
    CreateDb {
        /// Catalog name.
        name: String,
        /// Fact-list source text.
        facts: String,
        /// Constraint-list source text.
        constraints: String,
    },
    /// Remove a database.
    DropDb {
        /// Catalog name.
        name: String,
    },
    /// Insert facts into a database.
    Insert {
        /// Catalog name.
        db: String,
        /// Fact-list source text.
        facts: String,
    },
    /// Delete facts from a database.
    Delete {
        /// Catalog name.
        db: String,
        /// Fact-list source text.
        facts: String,
    },
    /// Parse/validate a query once, returning a reusable handle.
    Prepare {
        /// Query source text.
        query: String,
        /// Optional generator name, validated at prepare time (a
        /// pre-flight check for the generator the client intends to
        /// answer with — typos and bad parameters surface here instead
        /// of on the first answer).
        generator: Option<String>,
    },
    /// Look up the query text behind a prepared handle. Served by the
    /// handle authority (shard 0); the multi-process router uses it to
    /// rewrite `prepared` answers into inline text before forwarding
    /// them to other shard servers.
    PreparedGet {
        /// The handle to resolve.
        id: String,
    },
    /// Sample-based operational consistent answers.
    Answer {
        /// Catalog name.
        db: String,
        /// The query (inline or prepared).
        query: QueryRef,
        /// Generator name (`uniform`, `uniform-deletions`, `preference`).
        generator: String,
        /// Additive error bound ε.
        eps: f64,
        /// Confidence parameter δ.
        delta: f64,
        /// Sampling seed.
        seed: u64,
        /// Explicit plan override (`None` = automatic planner routing).
        plan: Option<PlanKind>,
    },
    /// List databases.
    List,
    /// Engine-wide statistics.
    Stats,
    /// Per-shard latency histograms (see [`crate::obs`]).
    Metrics,
    /// The planner's decision for one database × generator: the chosen
    /// plan plus every candidate's cost estimate and feasibility
    /// verdict.
    Explain {
        /// Catalog name.
        db: String,
        /// Generator name (feasibility depends on its capabilities).
        generator: String,
    },
    /// Register a continuous query on this session: the owning shard
    /// pushes an `"event":"estimate"` frame whenever an update touches
    /// the query's conflict components. Only meaningful on a streaming
    /// (socket) session — subscriptions are session-scoped and dropped
    /// on disconnect, never journaled.
    Subscribe {
        /// Catalog name.
        db: String,
        /// The query (inline or prepared).
        query: QueryRef,
        /// Generator name (`uniform`, `uniform-deletions`, `preference`).
        generator: String,
        /// Additive error bound ε for pushed re-estimates.
        eps: f64,
        /// Confidence parameter δ.
        delta: f64,
        /// Sampling seed.
        seed: u64,
        /// Explicit plan override (`None` = automatic planner routing).
        plan: Option<PlanKind>,
        /// Push every `window`-th touching update (1 = every touching
        /// update) — a thinning window for append-heavy feeds.
        window: u64,
    },
    /// Cancel a subscription registered on this session.
    Unsubscribe {
        /// Catalog name.
        db: String,
        /// The subscription id returned by `subscribe`.
        sub: u64,
    },
    /// Export one database's full durable image (facts, constraints,
    /// version, plan, maintained violations) as a checksummed, base64
    /// transfer image — the rebalancer's snapshot-shipping leg (see
    /// [`crate::transfer`]).
    FetchSnapshot {
        /// Catalog name.
        db: String,
    },
    /// Install a database from a transfer image, journaled like a
    /// `create_db` but preserving the image's exact version, plan and
    /// violation set — the receiving leg of a rebalance move. Refused if
    /// the name already exists (move-then-drop: the target never holds
    /// the database yet).
    InstallSnapshot {
        /// Catalog name (must match the image's).
        db: String,
        /// The base64 transfer image from `fetch_snapshot`.
        image: String,
    },
    /// Grow a live router deployment from `n` to `n+1` upstreams,
    /// shipping each re-homed database's snapshot to the new shard.
    /// Router-only: an in-process engine refuses it.
    Rebalance {
        /// The new upstream's `HOST:PORT`.
        add: String,
        /// Optional standby address for the new upstream.
        standby: Option<String>,
    },
}

/// Parses the answer-shaped parameter block shared by `answer` and
/// `subscribe`: query reference, generator, ε/δ, seed and plan pin.
#[allow(clippy::type_complexity)]
fn query_params(
    v: &Json,
    op: &str,
) -> Result<(QueryRef, String, f64, f64, u64, Option<PlanKind>), EngineError> {
    let opt_str = |key: &str| v.get(key).and_then(Json::as_str).map(str::to_string);
    let query = match (opt_str("query"), opt_str("prepared")) {
        (Some(text), None) => QueryRef::Text(text),
        (None, Some(id)) => QueryRef::Prepared(id),
        (Some(_), Some(_)) => {
            return Err(EngineError::BadRequest(
                "give either \"query\" or \"prepared\", not both".into(),
            ))
        }
        (None, None) => {
            return Err(EngineError::BadRequest(format!(
                "{op} needs \"query\" text or a \"prepared\" handle"
            )))
        }
    };
    let num = |key: &str, default: f64| -> Result<f64, EngineError> {
        match v.get(key) {
            None => Ok(default),
            Some(j) => j
                .as_f64()
                .ok_or_else(|| EngineError::BadRequest(format!("{key:?} must be a number"))),
        }
    };
    let seed = match v.get("seed") {
        None => 0,
        Some(j) => j.as_u64().ok_or_else(|| {
            EngineError::BadRequest("\"seed\" must be a non-negative integer".into())
        })?,
    };
    let plan = match v.get("plan") {
        None => None,
        Some(j) => {
            let name = j
                .as_str()
                .ok_or_else(|| EngineError::BadRequest("\"plan\" must be a string".into()))?;
            match name {
                "auto" => None,
                _ => Some(PlanKind::parse(name).ok_or_else(|| {
                    EngineError::BadRequest(format!(
                        "unknown plan {name:?} (expected auto, monolithic, \
                         localized or key-repair)"
                    ))
                })?),
            }
        }
    };
    Ok((
        query,
        opt_str("generator").unwrap_or_else(|| "uniform".into()),
        num("eps", 0.1)?,
        num("delta", 0.1)?,
        seed,
        plan,
    ))
}

impl EngineRequest {
    /// Parses a request from a JSON object.
    pub fn from_json(v: &Json) -> Result<EngineRequest, EngineError> {
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| EngineError::BadRequest("missing \"op\"".into()))?;
        let str_field = |key: &str| -> Result<String, EngineError> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| EngineError::BadRequest(format!("op {op:?} needs string {key:?}")))
        };
        let opt_str = |key: &str| v.get(key).and_then(Json::as_str).map(str::to_string);
        match op {
            "ping" => Ok(EngineRequest::Ping),
            "create_db" => Ok(EngineRequest::CreateDb {
                name: str_field("name")?,
                facts: opt_str("facts").unwrap_or_default(),
                constraints: opt_str("constraints").unwrap_or_default(),
            }),
            "drop_db" => Ok(EngineRequest::DropDb {
                name: str_field("name")?,
            }),
            "insert" => Ok(EngineRequest::Insert {
                db: str_field("db")?,
                facts: str_field("facts")?,
            }),
            "delete" => Ok(EngineRequest::Delete {
                db: str_field("db")?,
                facts: str_field("facts")?,
            }),
            "prepare" => Ok(EngineRequest::Prepare {
                query: str_field("query")?,
                generator: opt_str("generator"),
            }),
            "prepared_get" => Ok(EngineRequest::PreparedGet {
                id: str_field("id")?,
            }),
            "answer" => {
                let (query, generator, eps, delta, seed, plan) = query_params(v, op)?;
                Ok(EngineRequest::Answer {
                    db: str_field("db")?,
                    query,
                    generator,
                    eps,
                    delta,
                    seed,
                    plan,
                })
            }
            "subscribe" => {
                let (query, generator, eps, delta, seed, plan) = query_params(v, op)?;
                let window = match v.get("window") {
                    None => 1,
                    Some(j) => {
                        let w = j.as_u64().ok_or_else(|| {
                            EngineError::BadRequest("\"window\" must be a positive integer".into())
                        })?;
                        if w == 0 {
                            return Err(EngineError::BadRequest(
                                "\"window\" must be a positive integer".into(),
                            ));
                        }
                        w
                    }
                };
                Ok(EngineRequest::Subscribe {
                    db: str_field("db")?,
                    query,
                    generator,
                    eps,
                    delta,
                    seed,
                    plan,
                    window,
                })
            }
            "unsubscribe" => Ok(EngineRequest::Unsubscribe {
                db: str_field("db")?,
                sub: v.get("sub").and_then(Json::as_u64).ok_or_else(|| {
                    EngineError::BadRequest("unsubscribe needs a numeric \"sub\" id".into())
                })?,
            }),
            "list" => Ok(EngineRequest::List),
            "stats" => Ok(EngineRequest::Stats),
            "metrics" => Ok(EngineRequest::Metrics),
            "fetch_snapshot" => Ok(EngineRequest::FetchSnapshot {
                db: str_field("db")?,
            }),
            "install_snapshot" => Ok(EngineRequest::InstallSnapshot {
                db: str_field("db")?,
                image: str_field("image")?,
            }),
            "rebalance" => Ok(EngineRequest::Rebalance {
                add: str_field("add")?,
                standby: opt_str("standby"),
            }),
            "explain" => Ok(EngineRequest::Explain {
                db: str_field("db")?,
                generator: opt_str("generator").unwrap_or_else(|| "uniform".into()),
            }),
            other => Err(EngineError::BadRequest(format!("unknown op {other:?}"))),
        }
    }

    /// The wire name of this request's op (what trace events report).
    pub fn op_name(&self) -> &'static str {
        match self {
            EngineRequest::Ping => "ping",
            EngineRequest::CreateDb { .. } => "create_db",
            EngineRequest::DropDb { .. } => "drop_db",
            EngineRequest::Insert { .. } => "insert",
            EngineRequest::Delete { .. } => "delete",
            EngineRequest::Prepare { .. } => "prepare",
            EngineRequest::PreparedGet { .. } => "prepared_get",
            EngineRequest::Answer { .. } => "answer",
            EngineRequest::List => "list",
            EngineRequest::Stats => "stats",
            EngineRequest::Metrics => "metrics",
            EngineRequest::Explain { .. } => "explain",
            EngineRequest::Subscribe { .. } => "subscribe",
            EngineRequest::Unsubscribe { .. } => "unsubscribe",
            EngineRequest::FetchSnapshot { .. } => "fetch_snapshot",
            EngineRequest::InstallSnapshot { .. } => "install_snapshot",
            EngineRequest::Rebalance { .. } => "rebalance",
        }
    }
}

/// One estimated answer tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerRow {
    /// The answer tuple.
    pub tuple: Vec<Constant>,
    /// Hit frequency over **all** walks — for failing chains this
    /// estimates the *numerator* of `CP` (the probability of reaching a
    /// repair satisfying the query), not `CP` itself.
    pub p: f64,
    /// Hit frequency over the **successful** walks only — the §6 ratio
    /// estimator of the conditional probability `CP`. Equals `p` whenever
    /// `failed_walks` is 0 (every non-failing generator).
    pub p_cond: f64,
}

/// The payload of a successful `answer`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerPayload {
    /// Estimated answers, in canonical tuple order.
    pub answers: Vec<AnswerRow>,
    /// Walks performed (the Hoeffding budget for ε/δ).
    pub walks: u64,
    /// Walks ending in failing sequences.
    pub failed_walks: u64,
    /// Whether this response came from the answer cache.
    pub cached: bool,
    /// Whether this response was coalesced onto another request's
    /// in-flight sampling run (the single-flight follower path): the
    /// estimates are shared with — and bit-identical to — that leader's.
    pub coalesced: bool,
    /// Version of the database the answer was computed against.
    pub db_version: u64,
    /// The plan that served this answer.
    pub plan: PlanKind,
    /// Cache counters after this request (the observable hit signal).
    pub cache: CacheStats,
}

/// Engine-wide statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStatsPayload {
    /// Storage backend label (`"memory"`, `"disk"`, …). Owned, because
    /// the multi-process router learns it from an upstream's response
    /// rather than a compiled-in backend.
    pub backend: String,
    /// Requests handled (any op).
    pub requests: u64,
    /// `answer` requests served (computed, cached or coalesced), summed
    /// across shards.
    pub answers: u64,
    /// Sample walks executed by the pools (cache hits and coalesced
    /// followers excluded), summed across shards.
    pub walks: u64,
    /// Answers served by joining another request's in-flight sampling
    /// run (single-flight), summed across shards.
    pub coalesced: u64,
    /// Worker threads across all sampler pools.
    pub workers: usize,
    /// Databases across all shard catalogs.
    pub databases: usize,
    /// Prepared queries registered across all shard registries.
    pub prepared: usize,
    /// Number of shards behind the front door.
    pub shards: usize,
    /// Live subscriptions registered across all shards. Each shard
    /// reports its own registry size; the multi-process router sums its
    /// upstreams' values exactly once and adds nothing of its own.
    pub subscriptions: u64,
    /// Answer-cache counters, summed across shards.
    pub cache: CacheStats,
    /// Milliseconds since this front door started serving.
    pub uptime_ms: u64,
    /// The serving binary's crate version (`CARGO_PKG_VERSION`).
    pub build: String,
    /// Mutations acknowledged but **not** confirmed on the attached
    /// standby (`0` when healthy or unreplicated). The router sums its
    /// upstreams' values; its background probe also records the
    /// per-upstream value, which gates failover — promoting a standby
    /// that missed acked writes would lose them.
    pub replication_lag: u64,
}

/// The payload of a `metrics` response: every shard's latency-histogram
/// snapshot plus their bucket-wise merge. The route proxy reconstructs
/// this exact payload from its upstreams' responses, so both deployments
/// render `metrics` through this one type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsPayload {
    /// Per-shard snapshots, indexed by shard id.
    pub per_shard: Vec<MetricsSnapshot>,
    /// The serving topology's epoch (`ocqa_topology_epoch`). Both
    /// deployments start at 1, so a router over fresh upstreams and an
    /// in-process engine render `metrics` byte-identically until the
    /// first rebalance or failover bumps it.
    pub topology_epoch: u64,
    /// Databases moved by `rebalance` since this router started
    /// (`ocqa_rebalance_moves_total`; always 0 in-process).
    pub rebalance_moves: u64,
    /// Mutations acknowledged but **not** confirmed on a standby —
    /// non-zero only after a standby detached mid-stream
    /// (`ocqa_replication_lag_records`; summed across upstreams by the
    /// router).
    pub replication_lag: u64,
}

/// The payload of an `explain` response: the planner's decision for one
/// database × generator, with the per-candidate evidence. Every field is
/// an integer or a label — no wall-clock values — so two shards holding
/// identical state (e.g. a fresh `ocqa route` upstream and an in-process
/// shard) render `explain` byte-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainPayload {
    /// Catalog name.
    pub db: String,
    /// The database version the decision applies to.
    pub version: u64,
    /// The plan an automatic answer serves right now.
    pub chosen: PlanKind,
    /// Every plan's verdict, in registry order (key-repair, localized,
    /// monolithic).
    pub candidates: Vec<Candidate>,
    /// The catalog-maintained statistics the costs derive from.
    pub stats: DbStats,
}

/// A server response, renderable as one JSON line.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineResponse {
    /// `ping` reply.
    Pong,
    /// `create_db` reply.
    Created(DatabaseInfo),
    /// `drop_db` reply.
    Dropped {
        /// The dropped name.
        name: String,
    },
    /// `insert`/`delete` reply.
    Updated(UpdateOutcome),
    /// `prepare` reply.
    Prepared {
        /// The reusable handle.
        id: String,
    },
    /// `prepared_get` reply.
    PreparedText {
        /// The resolved handle.
        id: String,
        /// The handle's original query source text.
        query: String,
    },
    /// `answer` reply.
    Answer(AnswerPayload),
    /// `list` reply.
    List(Vec<DatabaseInfo>),
    /// `stats` reply.
    Stats(EngineStatsPayload),
    /// `metrics` reply.
    Metrics(MetricsPayload),
    /// `explain` reply.
    Explain(ExplainPayload),
    /// `subscribe` reply.
    Subscribed {
        /// Catalog name.
        db: String,
        /// The subscription id, unique within the owning shard. Pushed
        /// frames echo it so a session with several subscriptions can
        /// attribute each estimate.
        sub: u64,
    },
    /// `unsubscribe` reply.
    Unsubscribed {
        /// Catalog name.
        db: String,
        /// The cancelled subscription id.
        sub: u64,
    },
    /// `fetch_snapshot` reply: the database's transfer image.
    Snapshot {
        /// Catalog name.
        db: String,
        /// The exported version.
        version: u64,
        /// The base64 transfer image (see [`crate::transfer`]).
        image: String,
    },
    /// `rebalance` reply.
    Rebalanced {
        /// The topology epoch after the grow committed.
        epoch: u64,
        /// Member shards after the grow.
        shards: usize,
        /// Databases moved to the new shard, sorted.
        moved: Vec<String>,
    },
    /// Any failure.
    Error(EngineError),
}

fn constant_json(c: &Constant) -> Json {
    match c {
        // Exact: database constants can be any i64, beyond f64's 2⁵³.
        Constant::Int(v) => Json::Int(*v),
        Constant::Sym(s) => Json::Str(s.as_str().to_string()),
    }
}

/// Renders answer rows as the wire-format `"answers"` array. Shared by
/// the `answer` response and the pushed `"event":"estimate"` frames so
/// both serialize tuples identically.
pub(crate) fn answer_rows_json(rows: &[AnswerRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|row| {
                Json::obj([
                    (
                        "tuple",
                        Json::Arr(row.tuple.iter().map(constant_json).collect()),
                    ),
                    ("p", Json::Num(row.p)),
                    ("p_cond", Json::Num(row.p_cond)),
                ])
            })
            .collect(),
    )
}

fn info_json(info: &DatabaseInfo) -> Json {
    Json::obj([
        ("name", Json::from(info.name.clone())),
        ("version", Json::from(info.version)),
        ("facts", Json::from(info.facts as u64)),
        ("violations", Json::from(info.violations as u64)),
        ("plan", Json::from(info.plan.as_str().to_string())),
    ])
}

impl EngineResponse {
    /// Renders the response as a JSON value.
    pub fn to_json(&self) -> Json {
        match self {
            EngineResponse::Pong => Json::obj([("ok", true.into()), ("pong", true.into())]),
            EngineResponse::Created(info) => {
                let mut o = info_json(info);
                if let Json::Obj(m) = &mut o {
                    m.insert("ok".into(), true.into());
                }
                o
            }
            EngineResponse::Dropped { name } => {
                Json::obj([("ok", true.into()), ("dropped", Json::from(name.clone()))])
            }
            EngineResponse::Updated(out) => Json::obj([
                ("ok", true.into()),
                ("inserted", Json::from(out.inserted as u64)),
                ("removed", Json::from(out.removed as u64)),
                ("version", Json::from(out.version)),
                ("violations", Json::from(out.violations as u64)),
            ]),
            EngineResponse::Prepared { id } => {
                Json::obj([("ok", true.into()), ("id", Json::from(id.clone()))])
            }
            EngineResponse::PreparedText { id, query } => Json::obj([
                ("ok", true.into()),
                ("id", Json::from(id.clone())),
                ("query", Json::from(query.clone())),
            ]),
            EngineResponse::Answer(a) => Json::obj([
                ("ok", true.into()),
                ("answers", answer_rows_json(&a.answers)),
                ("walks", Json::from(a.walks)),
                ("failed_walks", Json::from(a.failed_walks)),
                ("cached", Json::from(a.cached)),
                ("coalesced", Json::from(a.coalesced)),
                ("db_version", Json::from(a.db_version)),
                ("plan", Json::from(a.plan.as_str().to_string())),
                ("cache_hits", Json::from(a.cache.hits)),
                ("cache_misses", Json::from(a.cache.misses)),
            ]),
            EngineResponse::List(infos) => Json::obj([
                ("ok", true.into()),
                (
                    "databases",
                    Json::Arr(infos.iter().map(info_json).collect()),
                ),
            ]),
            EngineResponse::Stats(s) => Json::obj([
                ("ok", true.into()),
                ("backend", Json::from(s.backend.clone())),
                ("requests", Json::from(s.requests)),
                ("answers", Json::from(s.answers)),
                ("walks", Json::from(s.walks)),
                ("coalesced", Json::from(s.coalesced)),
                ("workers", Json::from(s.workers as u64)),
                ("databases", Json::from(s.databases as u64)),
                ("prepared", Json::from(s.prepared as u64)),
                ("shards", Json::from(s.shards as u64)),
                ("subscriptions", Json::from(s.subscriptions)),
                ("cache_hits", Json::from(s.cache.hits)),
                ("cache_misses", Json::from(s.cache.misses)),
                ("cache_dominated_hits", Json::from(s.cache.dominated_hits)),
                ("cache_invalidated", Json::from(s.cache.invalidated)),
                ("cache_evicted", Json::from(s.cache.evicted)),
                ("cache_stale_drops", Json::from(s.cache.stale_drops)),
                ("cache_expired", Json::from(s.cache.expired)),
                ("uptime_ms", Json::from(s.uptime_ms)),
                ("build", Json::from(s.build.clone())),
                ("replication_lag", Json::from(s.replication_lag)),
            ]),
            EngineResponse::Metrics(m) => {
                let mut total = MetricsSnapshot::default();
                let per_shard = m
                    .per_shard
                    .iter()
                    .enumerate()
                    .map(|(k, snap)| {
                        total.merge(snap);
                        let mut o = snap.to_json();
                        o.set("shard", Json::from(k as u64));
                        o
                    })
                    .collect();
                Json::obj([
                    ("ok", true.into()),
                    ("shards", Json::from(m.per_shard.len() as u64)),
                    ("per_shard", Json::Arr(per_shard)),
                    ("rebalance_moves", Json::from(m.rebalance_moves)),
                    ("replication_lag", Json::from(m.replication_lag)),
                    ("topology_epoch", Json::from(m.topology_epoch)),
                    ("total", total.to_json()),
                ])
            }
            EngineResponse::Explain(x) => Json::obj([
                ("ok", true.into()),
                ("db", Json::from(x.db.clone())),
                ("db_version", Json::from(x.version)),
                ("chosen", Json::from(x.chosen.as_str())),
                (
                    "candidates",
                    Json::Arr(
                        x.candidates
                            .iter()
                            .map(|c| {
                                Json::obj([
                                    ("plan", Json::from(c.plan.as_str())),
                                    ("feasible", Json::from(c.feasible)),
                                    ("gate", c.gate.map(Json::from).unwrap_or(Json::Null)),
                                    ("cost", Json::from(c.cost)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "stats",
                    Json::obj([
                        ("facts", Json::from(x.stats.facts)),
                        ("conflict_facts", Json::from(x.stats.conflict_facts)),
                        ("clean_facts", Json::from(x.stats.clean_facts)),
                        ("components", Json::from(x.stats.components)),
                        ("largest_component", Json::from(x.stats.largest_component)),
                        ("sum_sq_component", Json::from(x.stats.sum_sq_component)),
                        ("p95_component", Json::from(x.stats.p95_component)),
                        ("violations", Json::from(x.stats.violations)),
                    ]),
                ),
            ]),
            EngineResponse::Subscribed { db, sub } => Json::obj([
                ("ok", true.into()),
                ("db", Json::from(db.clone())),
                ("sub", Json::from(*sub)),
            ]),
            EngineResponse::Unsubscribed { db, sub } => Json::obj([
                ("ok", true.into()),
                ("db", Json::from(db.clone())),
                ("sub", Json::from(*sub)),
                ("unsubscribed", true.into()),
            ]),
            EngineResponse::Snapshot { db, version, image } => Json::obj([
                ("ok", true.into()),
                ("db", Json::from(db.clone())),
                ("version", Json::from(*version)),
                ("image", Json::from(image.clone())),
            ]),
            EngineResponse::Rebalanced {
                epoch,
                shards,
                moved,
            } => Json::obj([
                ("ok", true.into()),
                ("epoch", Json::from(*epoch)),
                ("shards", Json::from(*shards as u64)),
                (
                    "moved",
                    Json::Arr(moved.iter().map(|n| Json::from(n.clone())).collect()),
                ),
            ]),
            EngineResponse::Error(e) => {
                let mut o = Json::obj([("ok", false.into()), ("error", Json::from(e.to_string()))]);
                // A rejected plan override additionally names the plan
                // and the feasibility gate as structured fields, so
                // clients need not parse the message.
                if let EngineError::PlanRejected { plan, gate, .. } = e {
                    o.set("plan", Json::from(plan.as_str()));
                    o.set("gate", Json::from(*gate));
                }
                // A topology change is retryable: the structured fields
                // carry the current epoch so clients re-resolve without
                // parsing the message.
                if let EngineError::StaleTopology { epoch, .. } = e {
                    o.set("retry", Json::from(true));
                    o.set("epoch", Json::from(*epoch));
                }
                o
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn parses_answer_with_defaults() {
        let v = json::parse(r#"{"op":"answer","db":"d","query":"(x) <- R(x)"}"#).unwrap();
        let req = EngineRequest::from_json(&v).unwrap();
        assert_eq!(
            req,
            EngineRequest::Answer {
                db: "d".into(),
                query: QueryRef::Text("(x) <- R(x)".into()),
                generator: "uniform".into(),
                eps: 0.1,
                delta: 0.1,
                seed: 0,
                plan: None,
            }
        );
    }

    #[test]
    fn parses_plan_override() {
        let v =
            json::parse(r#"{"op":"answer","db":"d","query":"(x) <- R(x)","plan":"key-repair"}"#)
                .unwrap();
        let EngineRequest::Answer { plan, .. } = EngineRequest::from_json(&v).unwrap() else {
            panic!("expected answer request");
        };
        assert_eq!(plan, Some(PlanKind::KeyRepair));
        // "auto" and absence both mean planner routing.
        let v =
            json::parse(r#"{"op":"answer","db":"d","query":"(x) <- R(x)","plan":"auto"}"#).unwrap();
        let EngineRequest::Answer { plan, .. } = EngineRequest::from_json(&v).unwrap() else {
            panic!();
        };
        assert_eq!(plan, None);
        // Unknown plans are rejected up front.
        let v = json::parse(r#"{"op":"answer","db":"d","query":"(x) <- R(x)","plan":"turbo"}"#)
            .unwrap();
        assert!(matches!(
            EngineRequest::from_json(&v),
            Err(EngineError::BadRequest(_))
        ));
        // So are non-string plan values: a typed-wrong pin must not be
        // silently downgraded to automatic routing.
        for bad in [r#""plan":5"#, r#""plan":true"#, r#""plan":null"#] {
            let line = format!(r#"{{"op":"answer","db":"d","query":"(x) <- R(x)",{bad}}}"#);
            let v = json::parse(&line).unwrap();
            assert!(
                matches!(
                    EngineRequest::from_json(&v),
                    Err(EngineError::BadRequest(_))
                ),
                "{bad} must be rejected"
            );
        }
    }

    #[test]
    fn parses_prepare_with_optional_generator() {
        let v = json::parse(r#"{"op":"prepare","query":"(x) <- R(x)"}"#).unwrap();
        assert_eq!(
            EngineRequest::from_json(&v).unwrap(),
            EngineRequest::Prepare {
                query: "(x) <- R(x)".into(),
                generator: None,
            }
        );
        let v =
            json::parse(r#"{"op":"prepare","query":"(x) <- R(x)","generator":"trust"}"#).unwrap();
        assert_eq!(
            EngineRequest::from_json(&v).unwrap(),
            EngineRequest::Prepare {
                query: "(x) <- R(x)".into(),
                generator: Some("trust".into()),
            }
        );
    }

    #[test]
    fn parses_subscribe_with_defaults_and_window() {
        let v = json::parse(r#"{"op":"subscribe","db":"d","query":"(x) <- R(x)"}"#).unwrap();
        assert_eq!(
            EngineRequest::from_json(&v).unwrap(),
            EngineRequest::Subscribe {
                db: "d".into(),
                query: QueryRef::Text("(x) <- R(x)".into()),
                generator: "uniform".into(),
                eps: 0.1,
                delta: 0.1,
                seed: 0,
                plan: None,
                window: 1,
            }
        );
        let v = json::parse(r#"{"op":"subscribe","db":"d","prepared":"q1","window":3}"#).unwrap();
        let EngineRequest::Subscribe { query, window, .. } = EngineRequest::from_json(&v).unwrap()
        else {
            panic!("expected subscribe request");
        };
        assert_eq!(query, QueryRef::Prepared("q1".into()));
        assert_eq!(window, 3);
        // A zero window would suppress every push; reject it up front.
        let v =
            json::parse(r#"{"op":"subscribe","db":"d","query":"(x) <- R(x)","window":0}"#).unwrap();
        assert!(matches!(
            EngineRequest::from_json(&v),
            Err(EngineError::BadRequest(_))
        ));
    }

    #[test]
    fn parses_unsubscribe_and_rejects_missing_sub() {
        let v = json::parse(r#"{"op":"unsubscribe","db":"d","sub":2}"#).unwrap();
        assert_eq!(
            EngineRequest::from_json(&v).unwrap(),
            EngineRequest::Unsubscribe {
                db: "d".into(),
                sub: 2
            }
        );
        let v = json::parse(r#"{"op":"unsubscribe","db":"d"}"#).unwrap();
        assert!(matches!(
            EngineRequest::from_json(&v),
            Err(EngineError::BadRequest(_))
        ));
    }

    #[test]
    fn rejects_ambiguous_query_refs() {
        let v = json::parse(r#"{"op":"answer","db":"d","query":"(x) <- R(x)","prepared":"q1"}"#)
            .unwrap();
        assert!(matches!(
            EngineRequest::from_json(&v),
            Err(EngineError::BadRequest(_))
        ));
        let v = json::parse(r#"{"op":"answer","db":"d"}"#).unwrap();
        assert!(EngineRequest::from_json(&v).is_err());
    }

    #[test]
    fn unknown_op_rejected() {
        let v = json::parse(r#"{"op":"explode"}"#).unwrap();
        assert!(matches!(
            EngineRequest::from_json(&v),
            Err(EngineError::BadRequest(_))
        ));
    }

    #[test]
    fn error_response_renders_ok_false() {
        let out = EngineResponse::Error(EngineError::UnknownDatabase("x".into()))
            .to_json()
            .to_string();
        assert!(out.contains("\"ok\":false"), "{out}");
        assert!(out.contains("unknown database"), "{out}");
    }

    #[test]
    fn parses_snapshot_and_rebalance_ops() {
        let v = json::parse(r#"{"op":"fetch_snapshot","db":"kv"}"#).unwrap();
        assert_eq!(
            EngineRequest::from_json(&v).unwrap(),
            EngineRequest::FetchSnapshot { db: "kv".into() }
        );
        let v = json::parse(r#"{"op":"install_snapshot","db":"kv","image":"QUJD"}"#).unwrap();
        assert_eq!(
            EngineRequest::from_json(&v).unwrap(),
            EngineRequest::InstallSnapshot {
                db: "kv".into(),
                image: "QUJD".into(),
            }
        );
        // install_snapshot without an image is rejected up front.
        let v = json::parse(r#"{"op":"install_snapshot","db":"kv"}"#).unwrap();
        assert!(EngineRequest::from_json(&v).is_err());
        let v = json::parse(r#"{"op":"rebalance","add":"127.0.0.1:9","standby":"127.0.0.1:10"}"#)
            .unwrap();
        assert_eq!(
            EngineRequest::from_json(&v).unwrap(),
            EngineRequest::Rebalance {
                add: "127.0.0.1:9".into(),
                standby: Some("127.0.0.1:10".into()),
            }
        );
    }

    #[test]
    fn stale_topology_renders_structured_retry() {
        let out = EngineResponse::Error(EngineError::StaleTopology {
            epoch: 7,
            message: "database \"kv\" is mid-move".into(),
        })
        .to_json()
        .to_string();
        assert!(out.contains("\"ok\":false"), "{out}");
        assert!(out.contains("\"retry\":true"), "{out}");
        assert!(out.contains("\"epoch\":7"), "{out}");
        assert!(out.contains("topology changed"), "{out}");
    }
}
