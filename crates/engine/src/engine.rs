//! The engine front door: request parsing, routing and fan-out over a
//! set of [`ShardEngine`]s.
//!
//! The serving path is an explicit three-stage architecture:
//!
//! ```text
//!   front door (this type)  →  Router (name → shard)  →  ShardEngine
//! ```
//!
//! The front door owns no catalog, cache or pool of its own. Per-database
//! requests (`create_db`/`drop_db`/`insert`/`delete`/`answer`) are routed
//! to the shard owning the database name — a restored placement when the
//! shard's storage already holds the name, rendezvous hashing
//! ([`Router`]) otherwise — and catalog-wide requests (`list`/`stats`)
//! fan out across all shards, merging per-shard results exactly once.
//! Responses at the protocol layer carry the serving shard in a `shard`
//! field.
//!
//! Prepared-query handles are front-door scope: explicit `prepare`
//! requests are served (and journaled) by **shard 0**, the handle
//! authority, and an `answer` carrying a `prepared` handle destined for
//! another shard is rewritten to its query text before routing. Handles
//! therefore work against every database regardless of placement, and
//! recovery of shard 0 restores them exactly as before sharding.
//!
//! A single-shard engine (`shards: 1`, the default) is behaviorally
//! identical to the historical monolithic engine.

use crate::error::EngineError;
use crate::frontdoor::{parse_request, route_of, FrontDoor, RouteTarget};
use crate::json::Json;
use crate::proto::{EngineRequest, EngineResponse, EngineStatsPayload, QueryRef};
use crate::server::LineService;
use crate::shard::ShardEngine;
use crate::storage::{MemoryBackend, StorageBackend};
use crate::upstream::Upstream;
use ocqa_core::{ChainGenerator, PreferenceGenerator, TrustGenerator, UniformGenerator};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Engine tunables. `workers` and `cache_capacity` are **totals**: the
/// front door divides them across shards (at least 1 each), so raising
/// `shards` re-partitions rather than multiplies the resource budget.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Sampler-pool worker threads, across all shards.
    pub workers: usize,
    /// Answer-cache capacity (entries), across all shards.
    pub cache_capacity: usize,
    /// Largest per-request walk budget the engine accepts. Without a cap
    /// a client-supplied tiny ε/δ would make `sample_size` astronomical
    /// and one request could pin every worker (and the job queue) forever.
    pub max_walks: u64,
    /// Number of shards the catalog is partitioned over (min 1).
    pub shards: usize,
    /// Per-entry answer-cache time-to-live in milliseconds; `0` disables
    /// time-based expiry (entries then live until a version bump or LRU
    /// eviction). For workloads whose staleness budget is time- rather
    /// than version-bounded.
    pub ttl_ms: u64,
    /// Per-shard admission limit on *concurrent sampling runs* (cache
    /// hits and coalesced followers don't count). Beyond it requests are
    /// rejected with [`EngineError::ShardFull`] instead of queueing
    /// unboundedly on the pool.
    pub max_inflight: usize,
    /// Slow-request trace threshold in milliseconds: requests at or
    /// above it emit one structured NDJSON event on stderr with their
    /// stage breakdown (see [`crate::obs::trace`]). `0` disables tracing.
    pub slow_ms: u64,
    /// Ceiling on live subscriptions per client connection. A
    /// `subscribe` beyond it is rejected with a structured error rather
    /// than letting one session pin unbounded registry and queue memory.
    pub max_subs_per_conn: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            cache_capacity: 1024,
            max_walks: 1_000_000,
            shards: 1,
            ttl_ms: 0,
            max_inflight: 1024,
            slow_ms: 0,
            max_subs_per_conn: 64,
        }
    }
}

/// Instantiates a generator by its protocol name.
///
/// Besides the fixed names, the Example 5 trust generator is exposed as
/// `trust` (every fact at trust ½) or `trust:<N>/<D>` with an explicit
/// default trust in `(0, 1]` — e.g. `trust:3/4`. Trust weights are
/// relative within each violating pair, and the generator is
/// component-local with its own key-repair group policy, so keyed
/// databases serve it down the group-sampling fast path.
pub fn generator_by_name(name: &str) -> Result<Arc<dyn ChainGenerator>, EngineError> {
    match name {
        "uniform" => Ok(Arc::new(UniformGenerator::new())),
        "uniform-deletions" => Ok(Arc::new(UniformGenerator::deletions_only())),
        "preference" => Ok(Arc::new(PreferenceGenerator::new())),
        "trust" => Ok(Arc::new(TrustGenerator::new(
            [],
            ocqa_num::Rat::ratio(1, 2),
        ))),
        other => match other.strip_prefix("trust:") {
            Some(param) => trust_with_default(param),
            None => Err(EngineError::UnknownGenerator(other.to_string())),
        },
    }
}

/// Parses `trust:<N>/<D>`'s parameter into a default-trust generator.
fn trust_with_default(param: &str) -> Result<Arc<dyn ChainGenerator>, EngineError> {
    let bad = || {
        EngineError::BadRequest(format!(
            "trust generator parameter {param:?}: expected a rational N/D in (0, 1]"
        ))
    };
    let (num, den) = param.split_once('/').ok_or_else(bad)?;
    let num: i64 = num.trim().parse().map_err(|_| bad())?;
    let den: i64 = den.trim().parse().map_err(|_| bad())?;
    if num <= 0 || den <= 0 || num > den {
        return Err(bad());
    }
    Ok(Arc::new(TrustGenerator::new(
        [],
        ocqa_num::Rat::ratio(num, den),
    )))
}

/// A long-lived, concurrent CQA serving engine: the front door over one
/// or more [`ShardEngine`]s.
pub struct Engine {
    shards: Vec<Arc<ShardEngine>>,
    /// Routing policy, placement table, request counter and fan-out
    /// merging — the transport-agnostic half of the front door, shared
    /// verbatim with the multi-process [`crate::RouteProxy`].
    front: FrontDoor,
    /// The `--replicate-to` standby, when attached: every acked
    /// protocol-level mutation is forwarded to it synchronously and in
    /// commit order (see [`Replicator`]). `None` on non-replicated
    /// deployments — zero overhead there.
    replica: RwLock<Option<Arc<Replicator>>>,
}

/// A synchronous op-stream replica: the standby behind `ocqa serve
/// --replicate-to ADDR`. The primary forwards every **acked** mutation
/// line to it verbatim, holding [`Replicator::order`] across
/// apply-and-forward — shard version counters are allocation-order
/// sensitive, so the standby must see mutations in exactly the
/// primary's commit order to stay bit-identical. A standby that refuses
/// or drops a forward is detached permanently (the primary keeps
/// serving and acking; `replication_lag` then counts every mutation the
/// standby missed) — a failover to a detached standby would lose acked
/// writes, so the lag rides the `stats` response, the router's probe
/// records it, and [`RouteProxy::fail_over`] refuses to promote a
/// standby whose primary last reported a non-zero lag.
///
/// [`RouteProxy::fail_over`]: crate::RouteProxy::fail_over
struct Replicator {
    upstream: Upstream,
    /// Mutations the (detached) standby missed.
    lag: AtomicU64,
    /// Set on the first failed forward; never cleared — a standby with a
    /// hole in its op stream can never be trusted again.
    detached: AtomicBool,
    /// Held across apply + forward of each mutation.
    order: Mutex<()>,
}

impl Replicator {
    /// Forwards one acked mutation line; on failure, detaches for good.
    fn forward(&self, line: &str) {
        if self.detached.load(Ordering::Relaxed) {
            self.lag.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let acked = self
            .upstream
            .exchange(line)
            .ok()
            .and_then(|resp| crate::json::parse(&resp).ok())
            .map(|v| v.get("ok").and_then(Json::as_bool) == Some(true))
            .unwrap_or(false);
        if !acked {
            self.detached.store(true, Ordering::Relaxed);
            self.lag.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "{}",
                Json::obj([
                    ("addr", Json::from(self.upstream.addr().to_string())),
                    ("event", Json::from("replica_detached")),
                ])
            );
        }
    }
}

/// Ops forwarded to an attached replica: everything that changes the
/// durable state a standby must mirror to answer bit-identically
/// (including shard-0 prepared-handle registrations, which are
/// journaled).
fn is_replicated(req: &EngineRequest) -> bool {
    matches!(
        req,
        EngineRequest::CreateDb { .. }
            | EngineRequest::DropDb { .. }
            | EngineRequest::Insert { .. }
            | EngineRequest::Delete { .. }
            | EngineRequest::Prepare { .. }
            | EngineRequest::InstallSnapshot { .. }
    )
}

impl Engine {
    /// Builds an in-memory engine with `config.shards` shards (spawns the
    /// sampler pools). Nothing persists across restarts; see
    /// [`Engine::with_backends`] for that.
    pub fn new(config: EngineConfig) -> Arc<Engine> {
        let backends: Vec<Arc<dyn StorageBackend>> = (0..config.shards.max(1))
            .map(|_| Arc::new(MemoryBackend) as Arc<dyn StorageBackend>)
            .collect();
        Engine::with_backends(config, backends)
            .expect("memory backend recovery is empty and infallible")
    }

    /// Builds a single-shard engine on one storage backend — the
    /// historical entry point, unchanged in behavior.
    pub fn with_backend(
        config: EngineConfig,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Arc<Engine>, EngineError> {
        Engine::with_backends(config, vec![backend])
    }

    /// Builds an engine over one shard per backend (`config.shards` is
    /// ignored in favor of `backends.len()`). Each backend's persisted
    /// state is recovered into its own shard — databases with exact
    /// versions, violation sets and planner classifications, prepared
    /// queries with their original ordinal handles — and every later
    /// mutation is journaled write-through to its shard's backend. A
    /// recovered engine serves bit-identical answers to its pre-restart
    /// self for equal requests (same seed, ε/δ, plan).
    ///
    /// Restored databases keep their restored shard even when the router
    /// would now place them elsewhere; a name recovered on **two** shards
    /// (a resharding gone wrong) is an error, not a silent coin toss.
    pub fn with_backends(
        config: EngineConfig,
        backends: Vec<Arc<dyn StorageBackend>>,
    ) -> Result<Arc<Engine>, EngineError> {
        if backends.is_empty() {
            return Err(EngineError::BadRequest(
                "engine needs at least one shard backend".into(),
            ));
        }
        let n = backends.len();
        let per_shard = EngineConfig {
            workers: (config.workers / n).max(1),
            cache_capacity: (config.cache_capacity / n).max(1),
            ..config
        };
        let mut shards = Vec::with_capacity(n);
        for (k, backend) in backends.into_iter().enumerate() {
            shards.push(ShardEngine::with_backend(per_shard, backend, k as u32)?);
        }
        let front = FrontDoor::new(n);
        for (k, shard) in shards.iter().enumerate() {
            let names = shard.list();
            front.seed(k, names.iter().map(|info| info.name.as_str()))?;
        }
        Ok(Arc::new(Engine {
            shards,
            front,
            replica: RwLock::new(None),
        }))
    }

    /// Number of shards behind this front door.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Attaches the `--replicate-to` standby: from now on every acked
    /// protocol-level mutation is forwarded to `addr` synchronously, in
    /// commit order. Call before serving — a standby attached mid-stream
    /// missed earlier mutations and could never converge. Direct
    /// [`handle`](Engine::handle) calls bypass replication: it is a
    /// protocol-level feature of the served line paths.
    pub fn attach_replica(&self, addr: &str) {
        *self.replica.write() = Some(Arc::new(Replicator {
            upstream: Upstream::new(addr.to_string()),
            lag: AtomicU64::new(0),
            detached: AtomicBool::new(false),
            order: Mutex::new(()),
        }));
    }

    /// Mutations the attached standby has missed (`0` when healthy or
    /// when no replica is attached) — the `replication_lag` metrics
    /// field and the `ocqa_replication_lag_records` gauge.
    pub fn replication_lag(&self) -> u64 {
        self.replica
            .read()
            .as_ref()
            .map(|r| r.lag.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// The shard serving `name`: its restored/created placement if one
    /// exists, the router's deterministic assignment otherwise.
    pub fn shard_of(&self, name: &str) -> usize {
        self.front.shard_of(name)
    }

    /// The configured per-request walk ceiling.
    pub fn max_walks(&self) -> u64 {
        self.shards[0].max_walks()
    }

    /// Handles one request. Safe to call from any number of threads.
    pub fn handle(&self, req: EngineRequest) -> EngineResponse {
        self.handle_routed(req).1
    }

    /// [`handle`](Engine::handle), also reporting which shard served a
    /// per-database request (`None` for front-door and fan-out ops).
    pub fn handle_routed(&self, req: EngineRequest) -> (Option<u32>, EngineResponse) {
        self.front.begin_request();
        let (shard, result) = self.dispatch(req);
        match result {
            Ok(resp) => (shard, resp),
            Err(e) => (shard, EngineResponse::Error(e)),
        }
    }

    /// Handles one raw protocol line (parse → route → handle → render).
    /// Responses to routed requests carry the serving shard as a `shard`
    /// field; `list` entries each carry their database's shard.
    pub fn handle_line(&self, line: &str) -> Json {
        match parse_request(line) {
            Ok((raw, req)) => {
                if let Err(e) = self.front.check_epoch(&raw) {
                    self.front.begin_request();
                    return EngineResponse::Error(e).to_json();
                }
                self.render_replicated(line, req)
            }
            Err(e) => {
                self.front.begin_request();
                EngineResponse::Error(e).to_json()
            }
        }
    }

    /// [`handle_line`](Engine::handle_line) on a duplex session:
    /// `subscribe`/`unsubscribe` are served against `session` (the
    /// connection's push channel), every other op behaves exactly as on
    /// a plain session.
    pub fn handle_open_line(&self, line: &str, session: &crate::subscribe::PushSession) -> Json {
        let (raw, req) = match parse_request(line) {
            Ok(parsed) => parsed,
            Err(e) => {
                self.front.begin_request();
                return EngineResponse::Error(e).to_json();
            }
        };
        if let Err(e) = self.front.check_epoch(&raw) {
            self.front.begin_request();
            return EngineResponse::Error(e).to_json();
        }
        match req {
            EngineRequest::Subscribe {
                db,
                query,
                generator,
                eps,
                delta,
                seed,
                plan,
                window,
            } => {
                self.front.begin_request();
                let k = self.front.shard_of(&db);
                // Prepared handles live on shard 0: rewrite to text
                // before routing, exactly like `answer`.
                let query = match self.rewrite_prepared(k, query) {
                    Ok(query) => query,
                    Err(e) => return self.tag_shard(EngineResponse::Error(e), k),
                };
                let resp = match self.shards[k].subscribe(
                    session, &db, &query, &generator, eps, delta, seed, plan, window,
                ) {
                    Ok(sub) => EngineResponse::Subscribed { db, sub },
                    Err(e) => EngineResponse::Error(e),
                };
                self.tag_shard(resp, k)
            }
            EngineRequest::Unsubscribe { db, sub } => {
                self.front.begin_request();
                let k = self.front.shard_of(&db);
                let resp = match self.shards[k].unsubscribe(session, &db, sub) {
                    Ok(()) => EngineResponse::Unsubscribed { db, sub },
                    Err(e) => EngineResponse::Error(e),
                };
                self.tag_shard(resp, k)
            }
            other => self.render_replicated(line, other),
        }
    }

    /// [`render`](Engine::render), forwarding the verbatim line to the
    /// attached replica when the request is an **acked** mutation. The
    /// replicator's order lock is held across apply + forward so the
    /// standby sees mutations in exactly the primary's commit order —
    /// the invariant that keeps its version counters (and therefore its
    /// answers) bit-identical.
    fn render_replicated(&self, line: &str, req: EngineRequest) -> Json {
        let replica = if is_replicated(&req) {
            self.replica.read().clone()
        } else {
            None
        };
        let Some(replica) = replica else {
            return self.render(req);
        };
        let _order = replica.order.lock();
        let json = self.render(req);
        if json.get("ok").and_then(Json::as_bool) == Some(true) {
            replica.forward(line);
        }
        json
    }

    /// Renders a parsed request: route, handle, tag the serving shard.
    fn render(&self, req: EngineRequest) -> Json {
        let (shard, resp) = self.handle_routed(req);
        let mut json = resp.to_json();
        if let EngineResponse::List(_) = &resp {
            self.front.tag_list_shards(&mut json);
        } else if let Some(k) = shard {
            json.set("shard", Json::from(u64::from(k)));
        }
        json
    }

    /// Rewrites a shard-0 prepared handle to its query text when the
    /// request is bound for another shard.
    fn rewrite_prepared(&self, k: usize, query: QueryRef) -> Result<QueryRef, EngineError> {
        match query {
            QueryRef::Prepared(id) if k != 0 => self.shards[0]
                .prepared_get(&id)
                .map(|p| QueryRef::Text(p.text.clone())),
            other => Ok(other),
        }
    }

    fn tag_shard(&self, resp: EngineResponse, k: usize) -> Json {
        let mut json = resp.to_json();
        json.set("shard", Json::from(k as u64));
        json
    }

    fn dispatch(&self, req: EngineRequest) -> (Option<u32>, Result<EngineResponse, EngineError>) {
        // Resolve the destination through the shared routing policy (the
        // same function the multi-process route proxy uses), then apply
        // the op against the in-process shard it names.
        let routed = match route_of(&req) {
            RouteTarget::Local | RouteTarget::FanOut => None,
            RouteTarget::Authority => Some(0),
            RouteTarget::Database(name) => Some(self.front.shard_of(name)),
        };
        match req {
            EngineRequest::Ping => (None, Ok(EngineResponse::Pong)),
            EngineRequest::CreateDb {
                name,
                facts,
                constraints,
            } => {
                let k = routed.expect("create_db routes by name");
                let result = self.shards[k].create(&name, &facts, &constraints);
                if result.is_ok() {
                    self.front.record_create(&name, k);
                }
                (Some(k as u32), result.map(EngineResponse::Created))
            }
            EngineRequest::DropDb { name } => {
                let k = routed.expect("drop_db routes by name");
                let result = self.shards[k].drop_db(&name);
                if result.is_ok() {
                    self.front.record_drop(&name);
                }
                (
                    Some(k as u32),
                    result.map(|()| EngineResponse::Dropped { name }),
                )
            }
            EngineRequest::Insert { db, facts } => {
                let k = routed.expect("insert routes by name");
                (
                    Some(k as u32),
                    self.shards[k]
                        .update(&db, &facts, "")
                        .map(EngineResponse::Updated),
                )
            }
            EngineRequest::Delete { db, facts } => {
                let k = routed.expect("delete routes by name");
                (
                    Some(k as u32),
                    self.shards[k]
                        .update(&db, "", &facts)
                        .map(EngineResponse::Updated),
                )
            }
            EngineRequest::Prepare { query, generator } => {
                // Pre-flight generator validation: a client can pin the
                // generator it intends to answer with and learn about a
                // typo (or an unsupported parameter) at prepare time
                // instead of on the first answer.
                if let Some(name) = &generator {
                    if let Err(e) = generator_by_name(name) {
                        return (Some(0), Err(e));
                    }
                }
                // Shard 0 is the handle authority (see the module docs).
                (
                    Some(0),
                    self.shards[0]
                        .prepare(&query)
                        .map(|p| EngineResponse::Prepared { id: p.id.clone() }),
                )
            }
            EngineRequest::PreparedGet { id } => (
                Some(0),
                self.shards[0]
                    .prepared_get(&id)
                    .map(|p| EngineResponse::PreparedText {
                        id: p.id.clone(),
                        query: p.text.clone(),
                    }),
            ),
            EngineRequest::Answer {
                db,
                query,
                generator,
                eps,
                delta,
                seed,
                plan,
            } => {
                let k = routed.expect("answer routes by name");
                // Prepared handles live on shard 0: rewrite to the query
                // text before routing elsewhere, so any shard can serve
                // any handle.
                let query = match self.rewrite_prepared(k, query) {
                    Ok(query) => query,
                    Err(e) => return (Some(k as u32), Err(e)),
                };
                (
                    Some(k as u32),
                    self.shards[k]
                        .answer(&db, &query, &generator, eps, delta, seed, plan)
                        .map(EngineResponse::Answer),
                )
            }
            EngineRequest::Explain { db, generator } => {
                let k = routed.expect("explain routes by name");
                (
                    Some(k as u32),
                    self.shards[k]
                        .explain(&db, &generator)
                        .map(EngineResponse::Explain),
                )
            }
            EngineRequest::List => (
                None,
                Ok(EngineResponse::List(FrontDoor::merge_lists(
                    self.shards.iter().map(|s| s.list()),
                ))),
            ),
            EngineRequest::Stats => (None, Ok(EngineResponse::Stats(self.stats()))),
            EngineRequest::Metrics => (
                None,
                Ok(EngineResponse::Metrics(crate::proto::MetricsPayload {
                    per_shard: self.shards.iter().map(|s| s.metrics_snapshot()).collect(),
                    // The in-process topology never changes (growing
                    // means restarting with more --shards), so the epoch
                    // stays at its initial value and no moves happen.
                    topology_epoch: self.front.epoch(),
                    rebalance_moves: 0,
                    replication_lag: self.replication_lag(),
                })),
            ),
            EngineRequest::FetchSnapshot { db } => {
                let k = routed.expect("fetch_snapshot routes by name");
                (
                    Some(k as u32),
                    self.shards[k].export_snapshot(&db).map(|img| {
                        let image = crate::transfer::encode_image(&img);
                        EngineResponse::Snapshot {
                            db,
                            version: img.version,
                            image,
                        }
                    }),
                )
            }
            EngineRequest::InstallSnapshot { db, image } => {
                let k = routed.expect("install_snapshot routes by name");
                let result = crate::transfer::decode_image(&image).and_then(|img| {
                    if img.name != db {
                        return Err(EngineError::BadRequest(format!(
                            "install_snapshot: image is of database {:?}, not {db:?}",
                            img.name
                        )));
                    }
                    self.shards[k].install_snapshot(img)
                });
                if let Ok(info) = &result {
                    self.front.record_create(&info.name, k);
                }
                (Some(k as u32), result.map(EngineResponse::Created))
            }
            EngineRequest::Rebalance { .. } => (
                None,
                Err(EngineError::BadRequest(
                    "rebalance is a router op: an in-process engine grows by restarting \
                     with more --shards; use ocqa route for live growth"
                        .into(),
                )),
            ),
            // Subscriptions need a duplex session to push frames into;
            // on a plain request path (stdio, direct `handle` calls)
            // there is nowhere to deliver them.
            EngineRequest::Subscribe { db, .. } | EngineRequest::Unsubscribe { db, .. } => {
                let k = self.front.shard_of(&db);
                (
                    Some(k as u32),
                    Err(EngineError::BadRequest(
                        "subscribe needs a streaming session: connect over TCP and keep the \
                         connection open for pushed frames"
                            .into(),
                    )),
                )
            }
        }
    }

    /// Engine-wide statistics: the front door's request counter plus
    /// each shard's local counters, summed **exactly once** — the
    /// fan-out reads every shard a single time, and shards themselves
    /// never count requests (only the front door does), so a request
    /// retried after a [`EngineError::ShardFull`] admission rejection
    /// contributes one `requests` tick per attempt and its walks once.
    fn stats(&self) -> EngineStatsPayload {
        let per_shard: Vec<_> = self.shards.iter().map(|s| s.stats()).collect();
        let mut payload = self
            .front
            .sum_stats(self.shards[0].backend_label().to_string(), &per_shard);
        payload.replication_lag = self.replication_lag();
        payload
    }
}

impl LineService for Engine {
    fn serve_line(&self, line: &str) -> String {
        self.handle_line(line).to_string()
    }

    fn serve_open_line(&self, line: &str, session: &crate::subscribe::PushSession) -> String {
        self.handle_open_line(line, session).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::PlanKind;
    use ocqa_core::sample::sample_size;

    fn engine() -> Arc<Engine> {
        Engine::new(EngineConfig {
            workers: 2,
            cache_capacity: 64,
            ..EngineConfig::default()
        })
    }

    fn create_prefs(e: &Engine) {
        let resp = e.handle(EngineRequest::CreateDb {
            name: "prefs".into(),
            facts: "Pref(a,b). Pref(a,c). Pref(a,d). Pref(b,a). Pref(b,d). Pref(c,a).".into(),
            constraints: "Pref(x,y), Pref(y,x) -> false.".into(),
        });
        assert!(matches!(resp, EngineResponse::Created(_)), "{resp:?}");
    }

    fn answer_req(seed: u64) -> EngineRequest {
        EngineRequest::Answer {
            db: "prefs".into(),
            query: QueryRef::Text("(x) <- forall y: (Pref(x,y) | x = y)".into()),
            generator: "preference".into(),
            eps: 0.1,
            delta: 0.1,
            seed,
            plan: None,
        }
    }

    #[test]
    fn answer_estimates_example7() {
        let e = engine();
        create_prefs(&e);
        let EngineResponse::Answer(a) = e.handle(answer_req(7)) else {
            panic!("expected answer");
        };
        assert_eq!(a.walks, 150);
        assert!(!a.cached);
        assert_eq!(a.answers.len(), 1, "only (a) can win every comparison");
        // Exact CP is 9/20 = 0.45; ε = 0.1.
        assert!(
            (a.answers[0].p - 0.45).abs() <= 0.1,
            "p = {}",
            a.answers[0].p
        );
    }

    #[test]
    fn repeat_hits_cache_and_update_invalidates() {
        let e = engine();
        create_prefs(&e);
        let EngineResponse::Answer(first) = e.handle(answer_req(7)) else {
            panic!()
        };
        let EngineResponse::Answer(second) = e.handle(answer_req(7)) else {
            panic!()
        };
        assert!(!first.cached && second.cached);
        assert_eq!(second.cache.hits, 1);
        let rows_eq = first
            .answers
            .iter()
            .zip(&second.answers)
            .all(|(x, y)| x.tuple == y.tuple && x.p == y.p);
        assert!(rows_eq, "cached answer must be byte-identical");

        // Different seed is a different computation.
        let EngineResponse::Answer(third) = e.handle(answer_req(8)) else {
            panic!()
        };
        assert!(!third.cached);

        // An update bumps the version; the same request recomputes.
        let resp = e.handle(EngineRequest::Delete {
            db: "prefs".into(),
            facts: "Pref(c,a).".into(),
        });
        assert!(matches!(resp, EngineResponse::Updated(_)));
        let EngineResponse::Answer(fourth) = e.handle(answer_req(7)) else {
            panic!()
        };
        assert!(!fourth.cached, "update must invalidate");
        assert_eq!(fourth.db_version, 2);
    }

    #[test]
    fn prepared_handles_work() {
        let e = engine();
        create_prefs(&e);
        let EngineResponse::Prepared { id } = e.handle(EngineRequest::Prepare {
            query: "(x) <- exists y: Pref(x,y)".into(),
            generator: None,
        }) else {
            panic!()
        };
        let EngineResponse::Answer(a) = e.handle(EngineRequest::Answer {
            db: "prefs".into(),
            query: QueryRef::Prepared(id),
            generator: "uniform".into(),
            eps: 0.2,
            delta: 0.2,
            seed: 1,
            plan: None,
        }) else {
            panic!()
        };
        assert!(!a.answers.is_empty());
    }

    #[test]
    fn prepare_validates_the_intended_generator() {
        let e = engine();
        let prepare = |generator: Option<&str>| {
            e.handle(EngineRequest::Prepare {
                query: "(x) <- exists y: Pref(x,y)".into(),
                generator: generator.map(str::to_string),
            })
        };
        assert!(matches!(
            prepare(Some("nope")),
            EngineResponse::Error(EngineError::UnknownGenerator(_))
        ));
        assert!(matches!(
            prepare(Some("trust:9/1")),
            EngineResponse::Error(EngineError::BadRequest(_))
        ));
        // Valid generator names pass through to the normal prepare path.
        assert!(matches!(
            prepare(Some("trust")),
            EngineResponse::Prepared { .. }
        ));
        assert!(matches!(prepare(None), EngineResponse::Prepared { .. }));
    }

    #[test]
    fn trust_generator_served_through_the_protocol() {
        // The Example 5 trust model, requested by name over the protocol:
        // on a key-only pairs database its own group policy serves the
        // key-repair fast path, and each fact of a 50/50 pair survives
        // with probability 3/8 (not the uniform chain's 1/3).
        let e = engine();
        let resp = e.handle(EngineRequest::CreateDb {
            name: "pair".into(),
            facts: "R(a,1). R(a,2).".into(),
            constraints: "R(x,y), R(x,z) -> y = z.".into(),
        });
        assert!(matches!(resp, EngineResponse::Created(_)));
        let answer = |generator: &str| {
            e.handle(EngineRequest::Answer {
                db: "pair".into(),
                query: QueryRef::Text("(y) <- R('a', y)".into()),
                generator: generator.into(),
                eps: 0.05,
                delta: 0.05,
                seed: 3,
                plan: None,
            })
        };
        let EngineResponse::Answer(a) = answer("trust") else {
            panic!("trust generator must be served");
        };
        assert_eq!(a.plan, PlanKind::KeyRepair);
        for row in &a.answers {
            assert!(
                (row.p - 0.375).abs() <= 0.06,
                "{:?}: p = {} should be ≈ 3/8",
                row.tuple,
                row.p
            );
        }
        // Equal explicit trust is the same relative-trust distribution.
        let EngineResponse::Answer(a) = answer("trust:3/4") else {
            panic!("parameterized trust must be served");
        };
        assert_eq!(a.plan, PlanKind::KeyRepair);
        // Malformed or out-of-range parameters are rejected up front.
        for bad in [
            "trust:0/1",
            "trust:2/1",
            "trust:-1/2",
            "trust:abc",
            "trust:",
        ] {
            assert!(
                matches!(
                    answer(bad),
                    EngineResponse::Error(EngineError::BadRequest(_))
                ),
                "{bad} must be rejected"
            );
        }
        assert!(matches!(
            answer("nope"),
            EngineResponse::Error(EngineError::UnknownGenerator(_))
        ));
    }

    #[test]
    fn bad_inputs_are_reported_not_panicked() {
        let e = engine();
        assert!(matches!(
            e.handle(EngineRequest::Answer {
                db: "missing".into(),
                query: QueryRef::Text("(x) <- R(x)".into()),
                generator: "uniform".into(),
                eps: 0.1,
                delta: 0.1,
                seed: 0,
                plan: None,
            }),
            EngineResponse::Error(EngineError::UnknownDatabase(_))
        ));
        create_prefs(&e);
        assert!(matches!(
            e.handle(EngineRequest::Answer {
                db: "prefs".into(),
                query: QueryRef::Text("(x) <- exists y: Pref(x,y)".into()),
                generator: "nope".into(),
                eps: 0.1,
                delta: 0.1,
                seed: 0,
                plan: None,
            }),
            EngineResponse::Error(EngineError::UnknownGenerator(_))
        ));
        assert!(matches!(
            e.handle(EngineRequest::Answer {
                db: "prefs".into(),
                query: QueryRef::Text("(x) <- exists y: Pref(x,y)".into()),
                generator: "uniform".into(),
                eps: 0.0,
                delta: 0.1,
                seed: 0,
                plan: None,
            }),
            EngineResponse::Error(EngineError::BadRequest(_))
        ));
        // A tiny ε would need an astronomical walk budget: the request is
        // rejected up front instead of pinning the pool (DoS guard).
        let resp = e.handle(EngineRequest::Answer {
            db: "prefs".into(),
            query: QueryRef::Text("(x) <- exists y: Pref(x,y)".into()),
            generator: "uniform".into(),
            eps: 1e-9,
            delta: 0.1,
            seed: 0,
            plan: None,
        });
        let EngineResponse::Error(EngineError::BadRequest(msg)) = resp else {
            panic!("expected budget rejection, got {resp:?}");
        };
        assert!(msg.contains("engine limit"), "{msg}");
    }

    fn create_kv(e: &Engine) {
        let resp = e.handle(EngineRequest::CreateDb {
            name: "kv".into(),
            facts: "R(1,10). R(1,20). R(2,30). R(2,40). R(3,50).".into(),
            constraints: "R(x,y), R(x,z) -> y = z.".into(),
        });
        assert!(matches!(resp, EngineResponse::Created(_)), "{resp:?}");
    }

    fn stats_of(e: &Engine) -> EngineStatsPayload {
        let EngineResponse::Stats(s) = e.handle(EngineRequest::Stats) else {
            panic!("expected stats");
        };
        s
    }

    #[test]
    fn failed_requests_do_not_inflate_answer_stats() {
        let e = engine();
        // Unknown database, unknown generator, bad ε, over-budget ε: all
        // rejected before (or instead of) sampling — none may count as a
        // served answer or as walks.
        for (db, generator, eps) in [
            ("missing", "uniform", 0.1),
            ("prefs", "nope", 0.1),
            ("prefs", "uniform", 0.0),
            ("prefs", "uniform", 1e-9),
        ] {
            if db == "prefs" && stats_of(&e).databases == 0 {
                create_prefs(&e);
            }
            let resp = e.handle(EngineRequest::Answer {
                db: db.into(),
                query: QueryRef::Text("(x) <- exists y: Pref(x,y)".into()),
                generator: generator.into(),
                eps,
                delta: 0.1,
                seed: 0,
                plan: None,
            });
            assert!(matches!(resp, EngineResponse::Error(_)), "{resp:?}");
        }
        let s = stats_of(&e);
        assert_eq!(s.answers, 0, "failed requests must not count as answers");
        assert_eq!(s.walks, 0);

        // A successful answer counts once, with its walks.
        assert!(matches!(e.handle(answer_req(7)), EngineResponse::Answer(_)));
        let s = stats_of(&e);
        assert_eq!((s.answers, s.walks), (1, 150));
        // A cached answer counts as an answer but adds no walks.
        assert!(matches!(e.handle(answer_req(7)), EngineResponse::Answer(_)));
        let s = stats_of(&e);
        assert_eq!((s.answers, s.walks), (2, 150));
    }

    #[test]
    fn planner_routes_by_shape_and_generator() {
        let e = engine();
        create_kv(&e);
        create_prefs(&e);
        let answer = |db: &str, generator: &str, plan: Option<PlanKind>| {
            e.handle(EngineRequest::Answer {
                db: db.into(),
                query: QueryRef::Text(
                    if db == "kv" {
                        "(x) <- exists y: R(x,y)"
                    } else {
                        "(x) <- exists y: Pref(x,y)"
                    }
                    .into(),
                ),
                generator: generator.into(),
                eps: 0.1,
                delta: 0.1,
                seed: 1,
                plan,
            })
        };
        // Key-only constraints serve key-repair; DC constraints localized.
        let EngineResponse::Answer(a) = answer("kv", "uniform", None) else {
            panic!()
        };
        assert_eq!(a.plan, PlanKind::KeyRepair);
        let EngineResponse::Answer(a) = answer("prefs", "uniform", None) else {
            panic!()
        };
        assert_eq!(a.plan, PlanKind::Localized);
        // Non-component-local generators fall back to monolithic.
        let EngineResponse::Answer(a) = answer("prefs", "preference", None) else {
            panic!()
        };
        assert_eq!(a.plan, PlanKind::Monolithic);
        // Explicit overrides: monolithic always; unsound forces error.
        let EngineResponse::Answer(a) = answer("kv", "uniform", Some(PlanKind::Monolithic)) else {
            panic!()
        };
        assert_eq!(a.plan, PlanKind::Monolithic);
        assert!(matches!(
            answer("prefs", "uniform", Some(PlanKind::KeyRepair)),
            EngineResponse::Error(EngineError::PlanRejected {
                plan: PlanKind::KeyRepair,
                gate: crate::planner::cost::GATE_KEY_COVER,
                ..
            })
        ));
        // The catalog reports the structural classification in `list`.
        let EngineResponse::List(infos) = e.handle(EngineRequest::List) else {
            panic!()
        };
        let by_name: std::collections::HashMap<_, _> =
            infos.iter().map(|i| (i.name.as_str(), i.plan)).collect();
        assert_eq!(by_name["kv"], PlanKind::KeyRepair);
        assert_eq!(by_name["prefs"], PlanKind::Localized);
    }

    #[test]
    fn vetoing_backend_blocks_mutations() {
        use crate::image::DbImage;
        use crate::storage::{RecoveredState, StorageBackend, UpdateDelta};

        /// Journals nothing and vetoes everything: every mutation must
        /// fail *and leave no trace* — the journal-before-mutate contract.
        struct Veto;
        impl StorageBackend for Veto {
            fn label(&self) -> &'static str {
                "veto"
            }
            fn recover(&self) -> Result<RecoveredState, EngineError> {
                Ok(RecoveredState::empty())
            }
            fn journal_install(&self, _: &DbImage) -> Result<(), EngineError> {
                Err(EngineError::Storage("no".into()))
            }
            fn journal_update(&self, _: &UpdateDelta<'_>) -> Result<(), EngineError> {
                Err(EngineError::Storage("no".into()))
            }
            fn journal_drop(&self, _: &str, _: u64) -> Result<(), EngineError> {
                Err(EngineError::Storage("no".into()))
            }
            fn journal_prepare(&self, _: &str, _: u64) -> Result<(), EngineError> {
                Err(EngineError::Storage("no".into()))
            }
        }

        let e = Engine::with_backend(
            EngineConfig {
                workers: 1,
                cache_capacity: 8,
                ..EngineConfig::default()
            },
            Arc::new(Veto),
        )
        .unwrap();
        let resp = e.handle(EngineRequest::CreateDb {
            name: "db".into(),
            facts: "R(1,1).".into(),
            constraints: "R(x,y), R(x,z) -> y = z.".into(),
        });
        assert!(matches!(
            resp,
            EngineResponse::Error(EngineError::Storage(_))
        ));
        let resp = e.handle(EngineRequest::Prepare {
            query: "(x) <- exists y: R(x,y)".into(),
            generator: None,
        });
        assert!(matches!(
            resp,
            EngineResponse::Error(EngineError::Storage(_))
        ));
        let s = stats_of(&e);
        assert_eq!((s.databases, s.prepared), (0, 0), "vetoed = not applied");
        assert_eq!(s.backend, "veto");
    }

    #[test]
    fn with_backend_restores_versions_plans_and_prepared_handles() {
        use crate::image::DbImage;
        use crate::storage::RecoveredState;
        use ocqa_logic::{parser, ViolationSet};
        use parking_lot::Mutex;

        // Hand-build the persisted world a disk backend would recover.
        let constraints = "R(x,y), R(x,z) -> y = z.";
        let facts = parser::parse_facts("R(1,10). R(1,20). R(2,30).").unwrap();
        let sigma = parser::parse_constraints(constraints).unwrap();
        let schema = parser::infer_schema(&facts, &sigma).unwrap();
        let db = ocqa_data::Database::from_facts(schema, facts).unwrap();
        let violations = ViolationSet::compute(&sigma, &db);

        struct Fixed(Mutex<Option<RecoveredState>>);
        impl crate::storage::StorageBackend for Fixed {
            fn label(&self) -> &'static str {
                "fixed"
            }
            fn recover(&self) -> Result<RecoveredState, EngineError> {
                Ok(self.0.lock().take().expect("recovered once"))
            }
            fn journal_install(&self, _: &DbImage) -> Result<(), EngineError> {
                Ok(())
            }
            fn journal_update(
                &self,
                _: &crate::storage::UpdateDelta<'_>,
            ) -> Result<(), EngineError> {
                Ok(())
            }
            fn journal_drop(&self, _: &str, _: u64) -> Result<(), EngineError> {
                Ok(())
            }
            fn journal_prepare(&self, _: &str, _: u64) -> Result<(), EngineError> {
                Ok(())
            }
        }

        let state = RecoveredState {
            databases: vec![DbImage {
                name: "kv".into(),
                version: 7,
                db,
                constraints: constraints.into(),
                plan: PlanKind::KeyRepair,
                violations,
            }],
            // Non-contiguous handles (q2 was evicted before the kill) and
            // a counter above every live id: both must restore verbatim.
            prepared: vec![
                ("q1".into(), "(x) <- exists y: R(x,y)".into()),
                ("q3".into(), "(y) <- exists x: R(x,y)".into()),
            ],
            prepared_next: 5,
            next_version: 9, // a dropped db once used 8 and 9
        };
        let e = Engine::with_backend(
            EngineConfig {
                workers: 2,
                cache_capacity: 16,
                ..EngineConfig::default()
            },
            Arc::new(Fixed(Mutex::new(Some(state)))),
        )
        .unwrap();

        // The restored database serves at its recorded version and plan.
        let EngineResponse::Answer(a) = e.handle(EngineRequest::Answer {
            db: "kv".into(),
            query: QueryRef::Prepared("q1".into()),
            generator: "uniform".into(),
            eps: 0.2,
            delta: 0.2,
            seed: 4,
            plan: None,
        }) else {
            panic!("restored database must answer");
        };
        assert_eq!(a.db_version, 7);
        assert_eq!(a.plan, PlanKind::KeyRepair);
        // Both prepared handles restored verbatim (non-contiguous ids).
        let EngineResponse::Prepared { id } = e.handle(EngineRequest::Prepare {
            query: "(y) <- exists x: R(x,y)".into(),
            generator: None,
        }) else {
            panic!()
        };
        assert_eq!(id, "q3", "re-preparing returns the restored handle");
        // New allocations continue above the restored counter, so an
        // evicted pre-restart handle is never re-minted.
        let EngineResponse::Prepared { id } = e.handle(EngineRequest::Prepare {
            query: "(x) <- R(x, 99)".into(),
            generator: None,
        }) else {
            panic!()
        };
        assert_eq!(id, "q6");
        // The version floor covers the dropped incarnations: a new
        // database starts above 9, never aliasing old cache keys.
        let EngineResponse::Created(info) = e.handle(EngineRequest::CreateDb {
            name: "fresh".into(),
            facts: "S(1,1).".into(),
            constraints: "S(x,y), S(x,z) -> y = z.".into(),
        }) else {
            panic!()
        };
        assert_eq!(info.version, 10);
    }

    #[test]
    fn handle_line_roundtrip() {
        let e = engine();
        let out = e.handle_line(r#"{"op":"ping"}"#).to_string();
        assert!(out.contains("\"pong\":true"));
        let out = e.handle_line("not json").to_string();
        assert!(out.contains("\"ok\":false"));
        // ping + bad line + this stats request itself = 3.
        let out = e.handle_line(r#"{"op":"stats"}"#).to_string();
        assert!(out.contains("\"requests\":3"), "{out}");
        assert!(out.contains("\"shards\":1"), "{out}");
    }

    #[test]
    fn sharded_engine_routes_merges_and_recreates() {
        let e = Engine::new(EngineConfig {
            workers: 4,
            cache_capacity: 64,
            shards: 3,
            ..EngineConfig::default()
        });
        assert_eq!(e.shards(), 3);
        let names = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"];
        for name in names {
            let resp = e.handle(EngineRequest::CreateDb {
                name: name.into(),
                facts: "R(1,10). R(1,20). R(2,30).".into(),
                constraints: "R(x,y), R(x,z) -> y = z.".into(),
            });
            assert!(matches!(resp, EngineResponse::Created(_)), "{resp:?}");
            // Routing is deterministic and consistent with the response.
            assert_eq!(e.shard_of(name), e.shard_of(name));
        }
        // Re-creating an existing name routes to its owner and fails.
        let resp = e.handle(EngineRequest::CreateDb {
            name: "alpha".into(),
            facts: "".into(),
            constraints: "".into(),
        });
        assert!(matches!(
            resp,
            EngineResponse::Error(EngineError::DatabaseExists(_))
        ));
        // `list` merges every shard, sorted by name.
        let EngineResponse::List(infos) = e.handle(EngineRequest::List) else {
            panic!()
        };
        let listed: Vec<&str> = infos.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(listed, names, "merged list must be sorted and complete");
        // Every database answers, wherever it landed.
        for (i, name) in names.iter().enumerate() {
            let EngineResponse::Answer(a) = e.handle(EngineRequest::Answer {
                db: (*name).into(),
                query: QueryRef::Text("(x) <- exists y: R(x,y)".into()),
                generator: "uniform".into(),
                eps: 0.1,
                delta: 0.1,
                seed: i as u64,
                plan: None,
            }) else {
                panic!("{name} must answer");
            };
            // Versions are shard-local counters: at least 1, and never
            // larger than the number of creates.
            assert!((1..=names.len() as u64).contains(&a.db_version));
        }
        // Updates route to the owning shard.
        let resp = e.handle(EngineRequest::Insert {
            db: "echo".into(),
            facts: "R(9,90).".into(),
        });
        let EngineResponse::Updated(out) = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(out.inserted, 1);
        // Drop frees the name; a recreate lands on the router's shard.
        assert!(matches!(
            e.handle(EngineRequest::DropDb {
                name: "echo".into()
            }),
            EngineResponse::Dropped { .. }
        ));
        let resp = e.handle(EngineRequest::CreateDb {
            name: "echo".into(),
            facts: "R(1,1).".into(),
            constraints: "R(x,y), R(x,z) -> y = z.".into(),
        });
        assert!(matches!(resp, EngineResponse::Created(_)), "{resp:?}");
        // Stats sum every shard exactly once.
        let s = stats_of(&e);
        assert_eq!(s.shards, 3);
        assert_eq!(s.databases, 6);
        assert_eq!(s.answers, 6);
        assert_eq!(s.walks, 6 * 150);
        // A second stats read is idempotent on the summed counters.
        let s2 = stats_of(&e);
        assert_eq!((s2.answers, s2.walks, s2.databases), (6, 900, 6));
        assert_eq!(s2.requests, s.requests + 1, "only requests advance");
    }

    #[test]
    fn single_flight_coalesces_concurrent_identical_misses() {
        use std::sync::Barrier;

        let e = Engine::new(EngineConfig {
            workers: 4,
            cache_capacity: 64,
            ..EngineConfig::default()
        });
        create_prefs(&e);
        // A budget big enough that the leader is still sampling while
        // the other threads arrive (the barrier lines them up).
        let (eps, delta) = (0.03, 0.05);
        let expected_walks = sample_size(eps, delta);
        const THREADS: usize = 8;
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let e = e.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    e.handle(EngineRequest::Answer {
                        db: "prefs".into(),
                        query: QueryRef::Text("(x) <- exists y: Pref(x,y)".into()),
                        generator: "uniform".into(),
                        eps,
                        delta,
                        seed: 7,
                        plan: None,
                    })
                })
            })
            .collect();
        let payloads: Vec<_> = handles
            .into_iter()
            .map(|h| match h.join().unwrap() {
                EngineResponse::Answer(a) => a,
                other => panic!("expected answer, got {other:?}"),
            })
            .collect();
        // Exactly one sampling run served all N requests…
        let s = stats_of(&e);
        assert_eq!(
            s.walks, expected_walks,
            "N concurrent identical misses must sample once"
        );
        assert_eq!(s.answers, THREADS as u64);
        // …and the other N−1 were either coalesced onto the leader's
        // flight or (having arrived after it retired) served from cache.
        assert_eq!(
            s.coalesced + s.cache.hits,
            (THREADS - 1) as u64,
            "coalesced {} hits {}",
            s.coalesced,
            s.cache.hits
        );
        // Every caller saw bit-identical estimates.
        for p in &payloads[1..] {
            assert_eq!(p.answers, payloads[0].answers, "divergent answers");
            assert_eq!(p.walks, expected_walks);
        }
        // Coalesced responses are marked as such.
        let coalesced = payloads.iter().filter(|p| p.coalesced).count() as u64;
        assert_eq!(coalesced, s.coalesced);
    }

    #[test]
    fn shard_full_rejection_then_retry_counts_once() {
        // Admission rejection must leave the success counters untouched,
        // so a client retry can never double-count: an engine whose
        // admission limit is 0 rejects every cold answer…
        let full = Engine::new(EngineConfig {
            workers: 1,
            cache_capacity: 8,
            max_inflight: 0,
            ..EngineConfig::default()
        });
        create_prefs(&full);
        for _ in 0..3 {
            // "retries"
            let resp = full.handle(answer_req(7));
            assert!(
                matches!(resp, EngineResponse::Error(EngineError::ShardFull(0))),
                "{resp:?}"
            );
        }
        let s = stats_of(&full);
        assert_eq!((s.answers, s.walks, s.coalesced), (0, 0, 0));
        // create + 3 rejected answers + this stats = 5: every attempt is
        // one request, counted at the front door only.
        assert_eq!(s.requests, 5);
    }

    #[test]
    fn ttl_expires_cached_answers() {
        let e = Engine::new(EngineConfig {
            workers: 2,
            cache_capacity: 64,
            ttl_ms: 30,
            ..EngineConfig::default()
        });
        create_kv(&e);
        let req = || EngineRequest::Answer {
            db: "kv".into(),
            query: QueryRef::Text("(x) <- exists y: R(x,y)".into()),
            generator: "uniform".into(),
            eps: 0.1,
            delta: 0.1,
            seed: 5,
            plan: None,
        };
        let EngineResponse::Answer(cold) = e.handle(req()) else {
            panic!()
        };
        assert!(!cold.cached);
        let EngineResponse::Answer(warm) = e.handle(req()) else {
            panic!()
        };
        assert!(warm.cached, "within the TTL the entry serves");
        std::thread::sleep(std::time::Duration::from_millis(90));
        let EngineResponse::Answer(late) = e.handle(req()) else {
            panic!()
        };
        assert!(!late.cached, "past the TTL the answer is recomputed");
        assert_eq!(late.answers, cold.answers, "recompute is deterministic");
        let s = stats_of(&e);
        assert_eq!(s.cache.expired, 1);
        assert_eq!(s.walks, 300, "two computations, one expiry");
    }

    #[test]
    fn answers_bit_identical_across_worker_counts() {
        // The scheduling contract end to end: every plan's estimate is a
        // pure function of (database, query, seed) — pool size, work
        // stealing and chunk interleaving must never show through.
        // ε/δ = 0.05 needs several chunks, so with 8 workers the chunks
        // genuinely race.
        let answers = |workers: usize| -> Vec<String> {
            let e = Engine::new(EngineConfig {
                workers,
                cache_capacity: 64,
                ..EngineConfig::default()
            });
            create_kv(&e);
            [
                PlanKind::KeyRepair,
                PlanKind::Localized,
                PlanKind::Monolithic,
            ]
            .into_iter()
            .map(|plan| {
                let EngineResponse::Answer(a) = e.handle(EngineRequest::Answer {
                    db: "kv".into(),
                    query: QueryRef::Text("(x) <- exists y: R(x,y)".into()),
                    generator: "uniform".into(),
                    eps: 0.05,
                    delta: 0.05,
                    seed: 11,
                    plan: Some(plan),
                }) else {
                    panic!("expected answer under {plan:?}");
                };
                assert!(!a.cached);
                format!("{:?}", a.answers)
            })
            .collect()
        };
        let reference = answers(1);
        for workers in [2, 8] {
            assert_eq!(
                answers(workers),
                reference,
                "answers drifted at {workers} workers"
            );
        }
    }
}
