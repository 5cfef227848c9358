//! The transport-agnostic front door, and the multi-process router
//! built on it.
//!
//! PR 4 split the serving path into front door → router → shard. This
//! module extracts everything the front door does that is **independent
//! of how shards are reached** — request parsing, routing policy,
//! placement bookkeeping, duplicate-recovery detection, `list` merging,
//! `stats` summation, and `shard`-field injection — into [`FrontDoor`],
//! so the in-process engine ([`crate::Engine`] over [`ShardEngine`]s)
//! and the multi-process router ([`RouteProxy`] over
//! [`Upstream`] NDJSON/TCP clients) share one implementation instead of
//! forking it. The determinism contract rides on this: both deployments
//! route every name through the same [`Router`] and merge fan-outs the
//! same way, so moving a shard out of process can never change an
//! estimate.
//!
//! [`ShardEngine`]: crate::shard::ShardEngine
//!
//! # The route proxy
//!
//! [`RouteProxy`] is the `ocqa route` process: a standalone front door
//! proxying the NDJSON protocol to N upstream shard servers, each an
//! ordinary `ocqa serve --shards 1` over its own `shard-<k>/` store.
//! Per-database requests are forwarded verbatim to the owning upstream
//! and the response's `shard` field rewritten from the upstream's local
//! `0` to the global shard index; `list`/`stats` fan out and merge
//! exactly like the in-process engine. Because the JSON writer is
//! deterministic (sorted keys, shortest-round-trip numbers), a response
//! proxied through `ocqa route` is **byte-identical** to the same
//! request served by `ocqa serve --shards N` — pinned by the
//! `route` integration tests.
//!
//! Prepared-query handles keep their front-door scope: `prepare` (and
//! the `prepared_get` lookup op) are served by upstream 0, the handle
//! authority, and an `answer` carrying a `prepared` handle destined for
//! another upstream is rewritten to its query text first, resolved via
//! `prepared_get` on every request — exactly the per-answer authority
//! lookup the in-process front door performs, so handle lifetime
//! (including the registry's capacity eviction) behaves identically in
//! both deployments.
//!
//! # Routed subscriptions
//!
//! A `subscribe` through the router opens a **dedicated** upstream
//! session (never the request pool — pushed frames arrive on it
//! asynchronously) and a relay thread forwards every pushed line to the
//! client *verbatim*: estimate frames carry no deployment-specific
//! fields, so routed subscribers see bytes identical to in-process
//! ones. The per-connection subscription ceiling is enforced at the
//! router (each routed subscription is alone on its upstream session,
//! so the upstream's own limit never trips), and a dead upstream turns
//! into a structured `"event":"closed"` frame with reason `"upstream"`
//! rather than a silent hang.
//!
//! # The elastic cluster
//!
//! The front door's routing state is an explicit, **epoch-versioned**
//! [`Topology`]: member count, per-database placement overrides and the
//! set of in-flight moves, with an epoch bumped by every membership
//! change, committed move and failover. Requests may pin the epoch they
//! resolved placement at (`"epoch":N`); a pinned request against a
//! changed topology — or a mutation addressed to a mid-move database —
//! gets a structured [`EngineError::StaleTopology`] retry (`"retry":
//! true` plus the current epoch) instead of a silently wrong shard.
//!
//! On top of the topology the route proxy is elastic three ways:
//!
//! * **Live rebalance** — the admin `rebalance` op grows the cluster
//!   n→n+1 under traffic: the new upstream is registered, every
//!   database whose rendezvous home moves is snapshot-shipped
//!   (`fetch_snapshot` → `install_snapshot`, versions preserved
//!   exactly), its placement flipped at a new epoch, and only then
//!   dropped from the old shard. Move-then-drop means a crash mid-move
//!   leaves a duplicate that [`FrontDoor::seed`] detects as a hard
//!   error — never a lost database. In-flight mutations are fenced
//!   (every routed mutation holds a read lock the mover write-acquires
//!   between marking the move and exporting the snapshot), so a shipped
//!   snapshot never misses an acked write. Re-issuing `rebalance` with
//!   an address that is already a member resumes (or no-ops) instead of
//!   registering a duplicate shard — a grow interrupted by a router
//!   crash finishes the same way it started.
//! * **Background health probing** — `--probe-ms` probes every upstream
//!   with a lightweight `stats` exchange, detecting a dead shard (and
//!   hot re-dialing a recovered one) before the first client request.
//! * **Standby failover** — a primary that fails [`FAILOVER_AFTER`]
//!   consecutive probes with a `--standby` configured is replaced by
//!   its standby at a new epoch. The standby replayed every acked
//!   mutation (the serve side's synchronous `--replicate-to` op-stream
//!   replication), so acked writes survive and answers stay
//!   bit-identical. A standby that detached mid-stream is **not**
//!   promoted: probes record each primary's reported `replication_lag`,
//!   and [`RouteProxy::fail_over`] refuses while the last observed lag
//!   is non-zero — promoting a diverged standby would silently lose
//!   acked writes.
//!
//! Membership changes persist to `--topology PATH` (`{epoch, upstreams,
//! standbys}`, tmp+rename): on restart the file wins over the CLI
//! flags, so a grown or failed-over cluster resumes as it last ran.

use crate::catalog::DatabaseInfo;
use crate::error::EngineError;
use crate::json::Json;
use crate::obs::{MetricsSnapshot, SlowLog};
use crate::planner::PlanKind;
use crate::proto::{EngineRequest, EngineResponse, EngineStatsPayload, MetricsPayload, QueryRef};
use crate::router::Topology;
use crate::server::{Frame, LineService};
use crate::shard::ShardStats;
use crate::subscribe::{self, PushOutcome, PushSession};
use crate::upstream::{StreamSession, Upstream};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Consecutive probe failures before a primary with a standby is failed
/// over. One failure can be a blip; three spaced `--probe-ms` apart is a
/// dead process.
pub const FAILOVER_AFTER: u32 = 3;

/// Where the front door sends a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteTarget<'a> {
    /// Served by the front door itself (`ping`).
    Local,
    /// Routed to the shard owning this database name.
    Database(&'a str),
    /// Served by shard 0, the prepared-handle authority
    /// (`prepare` / `prepared_get`).
    Authority,
    /// Fanned out over every shard and merged
    /// (`list` / `stats` / `metrics`).
    FanOut,
}

/// The routing policy: which shard serves each request kind. One
/// function, used by both the in-process engine and the route proxy, so
/// the policies cannot drift apart.
pub fn route_of(req: &EngineRequest) -> RouteTarget<'_> {
    match req {
        EngineRequest::Ping => RouteTarget::Local,
        EngineRequest::CreateDb { name, .. } | EngineRequest::DropDb { name } => {
            RouteTarget::Database(name)
        }
        EngineRequest::Insert { db, .. }
        | EngineRequest::Delete { db, .. }
        | EngineRequest::Answer { db, .. }
        | EngineRequest::Explain { db, .. }
        | EngineRequest::Subscribe { db, .. }
        | EngineRequest::Unsubscribe { db, .. }
        | EngineRequest::FetchSnapshot { db }
        | EngineRequest::InstallSnapshot { db, .. } => RouteTarget::Database(db),
        EngineRequest::Prepare { .. } | EngineRequest::PreparedGet { .. } => RouteTarget::Authority,
        EngineRequest::List | EngineRequest::Stats | EngineRequest::Metrics => RouteTarget::FanOut,
        // The rebalance admin op mutates the *topology*, not a shard:
        // the front door itself serves it (the in-process engine refuses
        // — growing it means restarting with more `--shards`).
        EngineRequest::Rebalance { .. } => RouteTarget::Local,
    }
}

/// Ops that change durable shard state. A mutation addressed to a
/// mid-move database is refused with a structured retry — the shipped
/// snapshot must not miss an acked write — while reads keep serving
/// from the old shard until the move commits.
fn is_mutation(req: &EngineRequest) -> bool {
    matches!(
        req,
        EngineRequest::CreateDb { .. }
            | EngineRequest::DropDb { .. }
            | EngineRequest::Insert { .. }
            | EngineRequest::Delete { .. }
            | EngineRequest::InstallSnapshot { .. }
    )
}

/// Parses one protocol line into a request (plus the raw JSON value, so
/// a proxy can rewrite fields without re-deriving them).
pub fn parse_request(line: &str) -> Result<(Json, EngineRequest), EngineError> {
    let v = crate::json::parse(line).map_err(|e| EngineError::BadRequest(e.to_string()))?;
    let req = EngineRequest::from_json(&v)?;
    Ok((v, req))
}

/// Transport-agnostic front-door state: the epoch-versioned topology
/// plus the request counter and fan-out merge logic.
pub struct FrontDoor {
    /// The serving topology: member count, per-database placement
    /// overrides (a database restored or created on a shard stays there
    /// even when rendezvous hashing would place a *new* namesake
    /// elsewhere), in-flight moves, and the epoch every change bumps.
    topology: RwLock<Topology>,
    requests: AtomicU64,
    started: Instant,
}

impl FrontDoor {
    /// A front door over `shards` shards (at least 1), with no seeded
    /// placements, at epoch 1.
    pub fn new(shards: usize) -> FrontDoor {
        FrontDoor {
            topology: RwLock::new(Topology::new(shards)),
            requests: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Number of shards behind this front door.
    pub fn shards(&self) -> usize {
        self.topology.read().shards()
    }

    /// The topology lock itself — the route proxy's rebalancer and
    /// failover sequence the epoch-bumping transitions directly.
    pub fn topology(&self) -> &RwLock<Topology> {
        &self.topology
    }

    /// The current topology epoch.
    pub fn epoch(&self) -> u64 {
        self.topology.read().epoch()
    }

    /// Enforces a request's pinned `"epoch"` field, when present: a
    /// client that resolved placement under an older (or newer) topology
    /// gets a structured retry carrying the current epoch, never a
    /// silently wrong shard.
    pub fn check_epoch(&self, raw: &Json) -> Result<(), EngineError> {
        let Some(pinned) = raw.get("epoch").and_then(Json::as_u64) else {
            return Ok(());
        };
        let current = self.epoch();
        if pinned != current {
            return Err(EngineError::StaleTopology {
                epoch: current,
                message: format!("request pinned epoch {pinned}; re-resolve and retry"),
            });
        }
        Ok(())
    }

    /// Refuses a mutation addressed to a mid-move database with a
    /// structured retry (reads keep serving from the old shard until
    /// the move commits).
    pub fn check_not_moving(&self, name: &str) -> Result<(), EngineError> {
        let topo = self.topology.read();
        if topo.is_moving(name) {
            return Err(EngineError::StaleTopology {
                epoch: topo.epoch(),
                message: format!("database {name:?} is mid-move; retry after the move commits"),
            });
        }
        Ok(())
    }

    /// Seeds recovered placements for one shard. A name already seeded
    /// by **another** shard is a hard error (a half-finished rebalance
    /// or a resharding gone wrong), never a silent coin toss.
    pub fn seed<'a>(
        &self,
        shard: usize,
        names: impl IntoIterator<Item = &'a str>,
    ) -> Result<(), EngineError> {
        let mut topology = self.topology.write();
        for name in names {
            if let Some(other) = topology.placed(name) {
                return Err(EngineError::Storage(format!(
                    "database {name:?} recovered on shard {other} and shard {shard}; \
                     rebalance the data directories before serving (a rebalance that \
                     died between install and drop leaves the database on both its \
                     old and new shard — drop it from the old one to resume)"
                )));
            }
            topology.place(name, shard);
        }
        Ok(())
    }

    /// The shard serving `name`: its restored/created placement if one
    /// exists, the router's deterministic assignment otherwise.
    pub fn shard_of(&self, name: &str) -> usize {
        self.topology.read().shard_of(name)
    }

    /// Records a successful `create_db` placement.
    pub fn record_create(&self, name: &str, shard: usize) {
        self.topology.write().place(name, shard);
    }

    /// Clears a dropped database's placement.
    pub fn record_drop(&self, name: &str) {
        self.topology.write().remove(name);
    }

    /// Counts one front-door request. Shards never count requests —
    /// only the front door does — so a retried rejection contributes one
    /// tick per attempt and nothing double-counts.
    pub fn begin_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests handled so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Milliseconds since this front door was built (the `stats`
    /// `uptime_ms` field — each deployment reports its own).
    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis().min(u128::from(u64::MAX)) as u64
    }

    /// Merges per-shard `list` results into one catalog view, sorted by
    /// name (the fan-out contract: every shard read exactly once).
    pub fn merge_lists(lists: impl IntoIterator<Item = Vec<DatabaseInfo>>) -> Vec<DatabaseInfo> {
        let mut all: Vec<DatabaseInfo> = lists.into_iter().flatten().collect();
        all.sort_by(|a, b| a.name.cmp(&b.name));
        all
    }

    /// Sums per-shard counters into the engine-wide `stats` payload:
    /// the front door's own request counter plus each shard's local
    /// counters, each shard read **exactly once**.
    pub fn sum_stats(&self, backend: String, per_shard: &[ShardStats]) -> EngineStatsPayload {
        let mut out = EngineStatsPayload {
            backend,
            requests: self.requests(),
            answers: 0,
            walks: 0,
            coalesced: 0,
            workers: 0,
            databases: 0,
            prepared: 0,
            shards: self.shards(),
            subscriptions: 0,
            cache: Default::default(),
            uptime_ms: self.uptime_ms(),
            build: env!("CARGO_PKG_VERSION").to_string(),
            // Replication is deployment-level, not per-shard: the
            // in-process engine and the router each fill this in from
            // their own replica bookkeeping after summing.
            replication_lag: 0,
        };
        for s in per_shard {
            out.answers += s.answers;
            out.walks += s.walks;
            out.coalesced += s.coalesced;
            out.workers += s.workers;
            out.databases += s.databases;
            out.prepared += s.prepared;
            out.subscriptions += s.subscriptions as u64;
            out.cache.merge(&s.cache);
        }
        out
    }

    /// Adds each listed database's owning shard to a rendered `list`
    /// response (protocol-layer `shard` injection).
    pub fn tag_list_shards(&self, json: &mut Json) {
        let Json::Obj(obj) = json else { return };
        let Some(Json::Arr(dbs)) = obj.get_mut("databases") else {
            return;
        };
        for db in dbs {
            let Some(name) = db.get("name").and_then(Json::as_str) else {
                continue;
            };
            let shard = self.shard_of(name) as u64;
            db.set("shard", Json::from(shard));
        }
    }
}

/// A routed subscription's identity: (client session id, db, sub id).
type SubKey = (u64, String, u64);

/// One router-side upstream slot: the live primary plus the optional
/// standby it fails over to.
struct UpstreamSlot {
    upstream: Arc<Upstream>,
    /// `--standby` address paired with this slot, if any. Consumed by a
    /// failover: a standby serves at most one promotion.
    standby: Option<String>,
}

/// Everything [`RouteProxy::connect_cfg`] needs to build a router.
pub struct RouteConfig {
    /// Upstream addresses in shard order (the first is shard 0, the
    /// prepared-handle authority).
    pub upstreams: Vec<String>,
    /// Standby address per upstream slot, positionally paired
    /// (`None` = no standby; shorter than `upstreams` is padded).
    pub standbys: Vec<Option<String>>,
    /// `--slow-ms` transport trace threshold (`0` disables).
    pub slow_ms: u64,
    /// `--max-subs-per-conn` subscription ceiling.
    pub max_subs: usize,
    /// `--probe-ms` background health-probe interval (`0` disables
    /// probing, and with it automatic failover).
    pub probe_ms: u64,
    /// `--topology PATH`: where membership changes persist. On startup
    /// an existing file **wins over** `upstreams`/`standbys`, so a grown
    /// or failed-over cluster resumes as it last ran.
    pub topology_path: Option<PathBuf>,
}

/// The membership record persisted at `--topology PATH`.
struct PersistedTopology {
    epoch: u64,
    upstreams: Vec<String>,
    standbys: Vec<Option<String>>,
}

/// The `ocqa route` engine: a standalone front door proxying the NDJSON
/// protocol to remote shard servers. See the module docs.
pub struct RouteProxy {
    front: FrontDoor,
    /// Upstream slots in shard order. Behind a lock because `rebalance`
    /// appends and failover swaps a primary in place; request paths
    /// clone the `Arc<Upstream>` out and never hold the lock across IO.
    slots: RwLock<Vec<UpstreamSlot>>,
    slow: SlowLog,
    /// Per-connection subscription ceiling (`--max-subs-per-conn`),
    /// enforced at the router before an upstream is dialed.
    max_subs: usize,
    /// Live routed subscriptions: each entry holds the shutdown handle
    /// of its dedicated upstream session. Removal is the "still live"
    /// token — whichever path removes the entry (unsubscribe, client
    /// disconnect, upstream close) owns the teardown, so the relay never
    /// synthesizes a terminal frame for an already-ended subscription.
    subs: Arc<Mutex<HashMap<SubKey, TcpStream>>>,
    /// Databases moved by completed rebalance steps (the
    /// `ocqa_rebalance_moves_total` gauge).
    moves: AtomicU64,
    /// Where membership persists (see [`RouteConfig::topology_path`]).
    topology_path: Option<PathBuf>,
    /// Serializes topology mutations: one rebalance or failover at a
    /// time, never interleaved.
    admin: Mutex<()>,
    /// The mutation fence for snapshot shipping. Every routed mutation
    /// holds this for **read** across the mid-move check *and* its
    /// upstream forward; the rebalancer acquires (and immediately
    /// releases) it for **write** between `begin_move` and
    /// `fetch_snapshot`. The write acquisition therefore waits out every
    /// in-flight mutation that passed the check before the move began —
    /// its write is applied (and acked) by the old shard *before* the
    /// snapshot is exported, so a shipped snapshot can never miss an
    /// acked write. Mutations arriving after `begin_move` see the moving
    /// flag and get the structured retry.
    move_gate: RwLock<()>,
}

/// Outcome of resolving a prepared handle against upstream 0.
enum Resolved {
    /// The handle's query text.
    Text(String),
    /// Upstream 0 answered with a protocol error (e.g. unknown handle):
    /// the response to relay, before shard tagging.
    Refused(Json),
    /// Upstream 0 was unreachable.
    Transport(EngineError),
}

impl RouteProxy {
    /// Connects to the given upstream shard servers (in shard order:
    /// the first address is shard 0, the prepared-handle authority) and
    /// seeds the placement table from each upstream's current catalog.
    /// Fails if any upstream is unreachable or one database name is
    /// served by two upstreams.
    pub fn connect(addrs: Vec<String>) -> Result<Arc<RouteProxy>, EngineError> {
        RouteProxy::connect_with(addrs, 0, 64)
    }

    /// [`connect`](RouteProxy::connect) with a `--slow-ms` trace
    /// threshold (proxied requests at or above `slow_ms` milliseconds
    /// emit one transport-level trace event on stderr; `0` disables)
    /// and a `--max-subs-per-conn` subscription ceiling.
    pub fn connect_with(
        addrs: Vec<String>,
        slow_ms: u64,
        max_subs: usize,
    ) -> Result<Arc<RouteProxy>, EngineError> {
        RouteProxy::connect_cfg(RouteConfig {
            upstreams: addrs,
            standbys: Vec::new(),
            slow_ms,
            max_subs,
            probe_ms: 0,
            topology_path: None,
        })
    }

    /// The full-configuration constructor behind `ocqa route`: standbys,
    /// background probing and topology persistence. An existing
    /// `--topology` file **overrides** the configured members (the
    /// cluster resumes as it last ran); a missing one is written fresh.
    pub fn connect_cfg(cfg: RouteConfig) -> Result<Arc<RouteProxy>, EngineError> {
        let mut addrs = cfg.upstreams;
        let mut standbys = cfg.standbys;
        let mut epoch = None;
        if let Some(path) = cfg.topology_path.as_deref() {
            if path.exists() {
                let persisted = load_topology(path)?;
                addrs = persisted.upstreams;
                standbys = persisted.standbys;
                epoch = Some(persisted.epoch);
            }
        }
        if addrs.is_empty() {
            return Err(EngineError::BadRequest(
                "route needs at least one upstream".into(),
            ));
        }
        standbys.resize(addrs.len(), None);
        let slots: Vec<UpstreamSlot> = addrs
            .into_iter()
            .zip(standbys)
            .map(|(addr, standby)| UpstreamSlot {
                upstream: Arc::new(Upstream::new(addr)),
                standby,
            })
            .collect();
        let front = FrontDoor::new(slots.len());
        if let Some(epoch) = epoch {
            front.topology().write().set_epoch(epoch);
        }
        for (k, slot) in slots.iter().enumerate() {
            let up = &slot.upstream;
            let resp = up.exchange(r#"{"op":"list"}"#)?;
            let infos = crate::json::parse(&resp)
                .map_err(|e| e.to_string())
                .and_then(|v| parse_list(&v))
                .map_err(|e| {
                    EngineError::Unavailable(format!("{}: malformed list: {e}", up.addr()))
                })?;
            front.seed(k, infos.iter().map(|i| i.name.as_str()))?;
        }
        let proxy = Arc::new(RouteProxy {
            front,
            slots: RwLock::new(slots),
            slow: SlowLog::new(cfg.slow_ms),
            max_subs: cfg.max_subs,
            subs: Arc::new(Mutex::new(HashMap::new())),
            moves: AtomicU64::new(0),
            topology_path: cfg.topology_path,
            admin: Mutex::new(()),
            move_gate: RwLock::new(()),
        });
        if let Some(path) = proxy.topology_path.as_deref() {
            if !path.exists() {
                proxy.persist_topology()?;
            }
        }
        if cfg.probe_ms > 0 {
            spawn_prober(&proxy, cfg.probe_ms);
        }
        Ok(proxy)
    }

    /// Number of upstream shard servers.
    pub fn shards(&self) -> usize {
        self.slots.read().len()
    }

    /// Number of databases currently placed across the upstreams.
    pub fn databases(&self) -> usize {
        self.front.topology().read().len()
    }

    /// The current topology epoch.
    pub fn epoch(&self) -> u64 {
        self.front.epoch()
    }

    /// The current upstream addresses, in shard order.
    pub fn upstream_addrs(&self) -> Vec<String> {
        self.slots
            .read()
            .iter()
            .map(|s| s.upstream.addr().to_string())
            .collect()
    }

    /// The live upstream handle for shard `k` (cloned out so no request
    /// ever holds the slot lock across IO). After a failover this is the
    /// promoted standby.
    pub fn upstream(&self, k: usize) -> Arc<Upstream> {
        self.slots.read()[k].upstream.clone()
    }

    /// A point-in-time snapshot of every upstream handle, for fan-outs.
    fn upstream_snapshot(&self) -> Vec<Arc<Upstream>> {
        self.slots
            .read()
            .iter()
            .map(|s| s.upstream.clone())
            .collect()
    }

    /// The shard serving `name` (placement table, else the router).
    pub fn shard_of(&self, name: &str) -> usize {
        self.front.shard_of(name)
    }

    /// Handles one raw protocol line, exactly like
    /// [`Engine::handle_line`](crate::Engine::handle_line) — but by
    /// proxying to the owning upstream instead of calling into an
    /// in-process shard.
    pub fn handle_line(&self, line: &str) -> String {
        let t0 = Instant::now();
        self.front.begin_request();
        let (raw, req) = match parse_request(line) {
            Ok(parsed) => parsed,
            Err(e) => return error_line(None, e),
        };
        let op = req.op_name();
        let out = self.route_one(line, raw, &req);
        // Transport-level slow tracing: total proxy time, including the
        // upstream's own service time. The stage breakdown lives in the
        // upstream's log — this event identifies *which* routed request
        // was slow and where it went.
        let elapsed = t0.elapsed();
        if self.slow.is_slow(elapsed) {
            self.slow.emit(Json::obj([
                ("op", Json::from(op)),
                ("proxy", Json::from(true)),
                (
                    "elapsed_ms",
                    Json::from(elapsed.as_millis().min(u128::from(u64::MAX)) as u64),
                ),
            ]));
        }
        out
    }

    /// Routes one parsed request: epoch enforcement, mid-move mutation
    /// gating, then the per-target proxy path.
    fn route_one(&self, line: &str, mut raw: Json, req: &EngineRequest) -> String {
        if let Err(e) = self.front.check_epoch(&raw) {
            return error_line(None, e);
        }
        // Strip a *validated* epoch pin before forwarding: each upstream
        // is its own single-shard engine whose epoch never leaves 1, so
        // a forwarded pin from a grown router would be refused there.
        let stripped: String;
        let line: &str = if raw.get("epoch").is_some() {
            raw.remove("epoch");
            stripped = raw.to_string();
            &stripped
        } else {
            line
        };
        match route_of(req) {
            RouteTarget::Local => match req {
                EngineRequest::Rebalance { add, standby } => {
                    match self.rebalance(add, standby.as_deref()) {
                        Ok(resp) => resp.to_json().to_string(),
                        Err(e) => error_line(None, e),
                    }
                }
                _ => EngineResponse::Pong.to_json().to_string(),
            },
            RouteTarget::Authority => self.proxy_authority(line),
            RouteTarget::Database(name) => {
                // Mutations hold the move gate for read from the
                // mid-move check through the upstream forward: the
                // rebalancer fences on it (write-acquire) between
                // `begin_move` and the snapshot fetch, so a mutation
                // that passed the check just before a move began is
                // applied by the old shard before its copy is exported
                // — never silently destroyed by the post-move drop.
                let _gate = is_mutation(req).then(|| self.move_gate.read());
                if _gate.is_some() {
                    if let Err(e) = self.front.check_not_moving(name) {
                        return error_line(Some(self.front.shard_of(name) as u32), e);
                    }
                }
                let k = self.front.shard_of(name);
                self.proxy_database(line, raw, req, k)
            }
            RouteTarget::FanOut => match req {
                EngineRequest::List => self.fan_out_list(),
                EngineRequest::Metrics => self.fan_out_metrics(),
                _ => self.fan_out_stats(),
            },
        }
    }

    /// Forwards a line to upstream `k` and parses the response (every
    /// well-behaved upstream emits one JSON object per line).
    fn forward(&self, k: usize, line: &str) -> Result<Json, EngineError> {
        RouteProxy::forward_up(&self.upstream(k), line)
    }

    /// [`forward`](RouteProxy::forward) against an explicit upstream
    /// handle (the rebalancer talks to shards the topology does not
    /// route to yet, or no longer routes to).
    fn forward_up(up: &Upstream, line: &str) -> Result<Json, EngineError> {
        let resp = up.exchange(line)?;
        crate::json::parse(&resp).map_err(|e| {
            EngineError::Unavailable(format!("{}: malformed response: {e}", up.addr()))
        })
    }

    /// `prepare` / `prepared_get`: upstream 0 is the handle authority.
    fn proxy_authority(&self, line: &str) -> String {
        match self.forward(0, line) {
            Ok(mut resp) => {
                resp.set("shard", Json::from(0u64));
                resp.to_string()
            }
            Err(e) => error_line(Some(0), e),
        }
    }

    /// Per-database ops: forward to the owning upstream, rewrite the
    /// `shard` tag, and mirror the in-process placement bookkeeping.
    fn proxy_database(&self, line: &str, raw: Json, req: &EngineRequest, k: usize) -> String {
        // Prepared handles live on upstream 0: rewrite to the query text
        // before routing elsewhere, so any upstream can serve any handle.
        let rewritten: String;
        let line = match req {
            EngineRequest::Answer {
                query: QueryRef::Prepared(id),
                ..
            } if k != 0 => match self.resolve_prepared(id) {
                Resolved::Text(text) => {
                    let mut raw = raw;
                    raw.remove("prepared");
                    raw.set("query", Json::from(text));
                    rewritten = raw.to_string();
                    &rewritten
                }
                Resolved::Refused(mut resp) => {
                    resp.set("shard", Json::from(k as u64));
                    return resp.to_string();
                }
                Resolved::Transport(e) => return error_line(Some(k as u32), e),
            },
            _ => line,
        };
        match self.forward(k, line) {
            Ok(mut resp) => {
                if is_ok(&resp) {
                    match req {
                        EngineRequest::CreateDb { name, .. } => self.front.record_create(name, k),
                        EngineRequest::DropDb { name } => self.front.record_drop(name),
                        _ => {}
                    }
                }
                resp.set("shard", Json::from(k as u64));
                resp.to_string()
            }
            Err(e) => error_line(Some(k as u32), e),
        }
    }

    /// The text behind a prepared handle, resolved against upstream 0
    /// on every request — the same per-answer authority lookup the
    /// in-process front door makes, so handle lifetime (including the
    /// registry's capacity eviction) behaves identically.
    fn resolve_prepared(&self, id: &str) -> Resolved {
        let lookup = Json::obj([("op", Json::from("prepared_get")), ("id", Json::from(id))]);
        let resp = match self.forward(0, &lookup.to_string()) {
            Ok(resp) => resp,
            Err(e) => return Resolved::Transport(e),
        };
        if !is_ok(&resp) {
            return Resolved::Refused(resp);
        }
        match resp.get("query").and_then(Json::as_str) {
            Some(text) => Resolved::Text(text.to_string()),
            None => Resolved::Transport(EngineError::Unavailable(format!(
                "{}: prepared_get returned no query text",
                self.upstream(0).addr()
            ))),
        }
    }

    /// `list`: fan out, merge and sort across upstreams, tag shards. A
    /// dead upstream fails the whole request — an incomplete catalog
    /// must never be presented as complete.
    fn fan_out_list(&self) -> String {
        let ups = self.upstream_snapshot();
        let mut lists = Vec::with_capacity(ups.len());
        for up in &ups {
            let resp = match RouteProxy::forward_up(up, r#"{"op":"list"}"#) {
                Ok(resp) => resp,
                Err(e) => return error_line(None, e),
            };
            match parse_list(&resp) {
                Ok(infos) => lists.push(infos),
                Err(e) => {
                    return error_line(
                        None,
                        EngineError::Unavailable(format!("{}: malformed list: {e}", up.addr())),
                    )
                }
            }
        }
        let mut json = EngineResponse::List(FrontDoor::merge_lists(lists)).to_json();
        self.front.tag_list_shards(&mut json);
        json.to_string()
    }

    /// `stats`: fan out and sum per-upstream counters exactly once.
    fn fan_out_stats(&self) -> String {
        let ups = self.upstream_snapshot();
        let mut backend = String::new();
        let mut per_shard = Vec::with_capacity(ups.len());
        let mut lag = 0u64;
        for (k, up) in ups.iter().enumerate() {
            let resp = match RouteProxy::forward_up(up, r#"{"op":"stats"}"#) {
                Ok(resp) => resp,
                Err(e) => return error_line(None, e),
            };
            match parse_stats(&resp) {
                Ok((upstream_backend, stats, upstream_lag)) => {
                    if k == 0 {
                        backend = upstream_backend;
                    }
                    per_shard.push(stats);
                    lag += upstream_lag;
                }
                Err(e) => {
                    return error_line(
                        None,
                        EngineError::Unavailable(format!("{}: malformed stats: {e}", up.addr())),
                    )
                }
            }
        }
        let mut payload = self.front.sum_stats(backend, &per_shard);
        payload.replication_lag = lag;
        let mut json = EngineResponse::Stats(payload).to_json();
        json.set("topology", self.topology_json());
        json.set("upstreams", self.upstream_health());
        json.to_string()
    }

    /// `metrics`: fan out, merge each upstream's shards into its global
    /// shard slot, and render through the *same* payload type the
    /// in-process engine uses — so the two deployments answer
    /// byte-identically, apart from the router-only `upstreams` key.
    fn fan_out_metrics(&self) -> String {
        let ups = self.upstream_snapshot();
        let mut per_shard = Vec::with_capacity(ups.len());
        let mut lag = 0u64;
        for up in &ups {
            let resp = match RouteProxy::forward_up(up, r#"{"op":"metrics"}"#) {
                Ok(resp) => resp,
                Err(e) => return error_line(None, e),
            };
            match parse_metrics(&resp) {
                Ok((snapshot, shard_lag)) => {
                    per_shard.push(snapshot);
                    lag += shard_lag;
                }
                Err(e) => {
                    return error_line(
                        None,
                        EngineError::Unavailable(format!("{}: malformed metrics: {e}", up.addr())),
                    )
                }
            }
        }
        let mut json = EngineResponse::Metrics(MetricsPayload {
            per_shard,
            topology_epoch: self.front.epoch(),
            rebalance_moves: self.moves.load(Ordering::Relaxed),
            replication_lag: lag,
        })
        .to_json();
        json.set("upstreams", self.upstream_health());
        json.to_string()
    }

    /// The router-only `topology` block appended to `stats` responses:
    /// epoch, members (with standbys), in-flight moves and placement
    /// count.
    fn topology_json(&self) -> Json {
        let slots = self.slots.read();
        let topo = self.front.topology().read();
        let members = slots
            .iter()
            .enumerate()
            .map(|(k, s)| {
                let mut m = Json::obj([
                    ("addr", Json::from(s.upstream.addr().to_string())),
                    ("shard", Json::from(k as u64)),
                ]);
                if let Some(standby) = &s.standby {
                    m.set("standby", Json::from(standby.clone()));
                }
                m
            })
            .collect();
        Json::obj([
            ("epoch", Json::from(topo.epoch())),
            ("members", Json::Arr(members)),
            (
                "moving",
                Json::Arr(topo.moving().into_iter().map(Json::from).collect()),
            ),
            ("placements", Json::from(topo.len() as u64)),
            ("shards", Json::from(topo.shards() as u64)),
        ])
    }

    /// The per-upstream health array appended (router-only) to `stats`
    /// and `metrics` responses.
    fn upstream_health(&self) -> Json {
        Json::Arr(
            self.upstream_snapshot()
                .iter()
                .map(|up| up.health_json())
                .collect(),
        )
    }

    /// [`handle_line`](RouteProxy::handle_line) on a duplex session:
    /// `subscribe` opens a dedicated upstream session and relays its
    /// pushed frames to the client verbatim, `unsubscribe` tears the
    /// relay down, every other op behaves exactly as on a plain session.
    pub fn handle_open_line(&self, line: &str, session: &PushSession) -> String {
        let (mut raw, req) = match parse_request(line) {
            Ok(parsed) => parsed,
            Err(e) => {
                self.front.begin_request();
                return error_line(None, e);
            }
        };
        match req {
            EngineRequest::Subscribe { db, query, .. } => {
                self.front.begin_request();
                if let Err(e) = self.front.check_epoch(&raw) {
                    return error_line(None, e);
                }
                if raw.get("epoch").is_some() {
                    raw.remove("epoch");
                }
                self.proxy_subscribe(raw, &db, &query, session)
            }
            EngineRequest::Unsubscribe { db, sub } => {
                self.front.begin_request();
                if let Err(e) = self.front.check_epoch(&raw) {
                    return error_line(None, e);
                }
                self.proxy_unsubscribe(&db, sub, session)
            }
            _ => self.handle_line(line),
        }
    }

    /// Opens one routed subscription: dial a dedicated session to the
    /// owning upstream, forward the `subscribe` line (prepared handles
    /// rewritten to text first), hand the session to a relay thread, and
    /// return the upstream's response with its `shard` tag rewritten to
    /// the global index.
    fn proxy_subscribe(
        &self,
        mut raw: Json,
        db: &str,
        query: &QueryRef,
        session: &PushSession,
    ) -> String {
        let k = self.front.shard_of(db);
        // The router enforces the per-connection ceiling itself: each
        // routed subscription is alone on its dedicated upstream
        // session, so the upstream's own limit would never trip.
        if !session.try_add_sub(self.max_subs) {
            return error_line(
                Some(k as u32),
                subscribe::subscribe_limit_error(self.max_subs),
            );
        }
        let fail = |e: EngineError| {
            session.remove_sub();
            error_line(Some(k as u32), e)
        };
        let up = self.upstream(k);
        let addr = up.addr();
        // Prepared handles live on upstream 0: rewrite to the query text
        // before routing elsewhere, exactly like `answer`.
        if let QueryRef::Prepared(id) = query {
            if k != 0 {
                match self.resolve_prepared(id) {
                    Resolved::Text(text) => {
                        raw.remove("prepared");
                        raw.set("query", Json::from(text));
                    }
                    Resolved::Refused(mut resp) => {
                        session.remove_sub();
                        resp.set("shard", Json::from(k as u64));
                        return resp.to_string();
                    }
                    Resolved::Transport(e) => return fail(e),
                }
            }
        }
        let mut stream = match up.dial_stream() {
            Ok(stream) => stream,
            Err(e) => return fail(e),
        };
        let resp = match stream.send(&raw.to_string()).and_then(|()| stream.read()) {
            Ok(Frame::Line(resp)) => resp,
            Ok(_) => {
                return fail(EngineError::Unavailable(format!(
                    "{addr}: subscribe: no usable response line"
                )))
            }
            Err(e) => return fail(EngineError::Unavailable(format!("{addr}: subscribe: {e}"))),
        };
        let mut resp = match crate::json::parse(&resp) {
            Ok(resp) => resp,
            Err(e) => {
                return fail(EngineError::Unavailable(format!(
                    "{addr}: malformed response: {e}"
                )))
            }
        };
        if !is_ok(&resp) {
            // The upstream refused (unknown db, bad ε, …): relay its
            // structured rejection, shard-tagged like every routed error.
            session.remove_sub();
            resp.set("shard", Json::from(k as u64));
            return resp.to_string();
        }
        let Some(sub) = resp.get("sub").and_then(Json::as_u64) else {
            return fail(EngineError::Unavailable(format!(
                "{addr}: subscribe response carries no sub id"
            )));
        };
        let Ok(shutdown) = stream.shutdown_handle() else {
            return fail(EngineError::Unavailable(format!(
                "{addr}: subscribe: lost the session socket"
            )));
        };
        let key: SubKey = (session.id(), db.to_string(), sub);
        self.subs.lock().insert(key.clone(), shutdown);
        {
            // Client disconnect: shut the dedicated session down, which
            // unblocks the relay; the removed map entry tells it not to
            // synthesize a terminal frame.
            let subs = self.subs.clone();
            let key = key.clone();
            session.on_close(move || {
                if let Some(conn) = subs.lock().remove(&key) {
                    let _ = conn.shutdown(Shutdown::Both);
                }
            });
        }
        if spawn_relay(stream, self.subs.clone(), key.clone(), session.clone()).is_err() {
            if self.subs.lock().remove(&key).is_some() {
                session.remove_sub();
            }
            return error_line(
                Some(k as u32),
                EngineError::Unavailable("no thread available for the subscription relay".into()),
            );
        }
        resp.set("shard", Json::from(k as u64));
        resp.to_string()
    }

    /// Ends one routed subscription: tear its relay down locally and
    /// synthesize the same `Unsubscribed` response an in-process shard
    /// renders. Closing the dedicated session is what unsubscribes
    /// upstream — its server reaps the subscription with the connection.
    ///
    /// That reaping settles *after* this returns: the upstream drops the
    /// subscription only when its connection worker next reads EOF on
    /// the session, so a `stats` or `metrics` sent straight after can
    /// still count it. The reply here is final; the upstream's gauges
    /// converge within one worker visit.
    fn proxy_unsubscribe(&self, db: &str, sub: u64, session: &PushSession) -> String {
        let k = self.front.shard_of(db);
        match self
            .subs
            .lock()
            .remove(&(session.id(), db.to_string(), sub))
        {
            Some(conn) => {
                let _ = conn.shutdown(Shutdown::Both);
                session.remove_sub();
                let mut json = EngineResponse::Unsubscribed {
                    db: db.to_string(),
                    sub,
                }
                .to_json();
                json.set("shard", Json::from(k as u64));
                json.to_string()
            }
            None => error_line(Some(k as u32), subscribe::unknown_subscription(db, sub)),
        }
    }

    /// Grows the cluster from `n` to `n+1` upstreams, live: registers
    /// (and persists) the new member, snapshot-ships every database
    /// whose rendezvous home moves to it, flips each placement at a new
    /// epoch, and only then drops the source copy (move-then-drop — a
    /// crash mid-move leaves a duplicate [`FrontDoor::seed`] refuses,
    /// never a lost database). Mutations against a mid-move database are
    /// refused with a structured retry; reads keep serving from the old
    /// shard until its move commits.
    ///
    /// A rebalance that failed partway is resumable by re-issuing the op
    /// with the same address — in the same router process *or* after a
    /// router restart: an `add` matching an **existing** member is never
    /// dialed as a new shard (no duplicate slot can ever be registered);
    /// instead its unfinished moves are re-driven. A fully-settled
    /// member re-added this way is a no-op.
    pub fn rebalance(
        &self,
        add: &str,
        standby: Option<&str>,
    ) -> Result<EngineResponse, EngineError> {
        let _admin = self.admin.lock();
        // Where does `add` stand relative to the current membership?
        // - a slot past the routed shard count: a grow this process
        //   started and lost mid-flight — resume it;
        // - an already-routed slot: a grow whose grown membership
        //   persisted but whose router crashed before every database
        //   shipped — finish the shipping (or no-op when settled);
        // - unknown while another grow is mid-flight: refused;
        // - unknown otherwise: a genuinely new member.
        let routed = self.front.shards();
        let existing = {
            let slots = self.slots.read();
            match slots.iter().position(|s| s.upstream.addr() == add) {
                Some(k) => Some((k, k >= routed)),
                None if slots.len() > routed => {
                    let addr = slots[routed].upstream.addr().to_string();
                    return Err(EngineError::BadRequest(format!(
                        "rebalance: a grow to {addr:?} is mid-flight; resume it by \
                         re-issuing rebalance with that address"
                    )));
                }
                None => None,
            }
        };
        let (new_index, grows_membership) = match existing {
            Some((k, mid_flight)) => {
                self.reconcile_standby(k, standby)?;
                (k, mid_flight)
            }
            None => {
                let up = Upstream::new(add.to_string());
                let resp = RouteProxy::forward_up(&up, r#"{"op":"list"}"#)?;
                let infos = parse_list(&resp)
                    .map_err(|e| EngineError::Unavailable(format!("{add}: malformed list: {e}")))?;
                if !infos.is_empty() {
                    return Err(EngineError::BadRequest(format!(
                        "rebalance: new shard {add:?} is not empty ({} databases); \
                         point it at a fresh data directory",
                        infos.len()
                    )));
                }
                let mut slots = self.slots.write();
                let k = slots.len();
                slots.push(UpstreamSlot {
                    upstream: Arc::new(up),
                    standby: standby.map(str::to_string),
                });
                drop(slots);
                // Persist the grown membership *before* any data moves:
                // a crash mid-move must restart knowing about the shard
                // that already holds shipped databases.
                self.persist_topology()?;
                (k, true)
            }
        };
        let new_up = self.upstream(new_index);
        let moving = if grows_membership {
            self.front.topology().read().names_moving_to_new_shard()
        } else {
            // Resuming after a router restart: the persisted membership
            // already routes over `slots.len()` shards, so the remaining
            // work is the stranded tail — databases HRW-homed on this
            // member but still placed where the pre-grow layout left
            // them (re-seeded from the upstream catalogs at startup).
            self.front.topology().read().names_stranded_off(new_index)
        };
        for name in &moving {
            self.move_database(name, new_index, &new_up)?;
        }
        if grows_membership {
            let mut topo = self.front.topology().write();
            topo.set_shards(new_index + 1);
            topo.bump_epoch();
        }
        self.persist_topology()?;
        Ok(EngineResponse::Rebalanced {
            epoch: self.front.epoch(),
            shards: self.front.shards(),
            moved: moving,
        })
    }

    /// Applies a resumed rebalance's `standby` argument to the slot it
    /// resumes: an unset slot adopts (and persists) the provided
    /// standby, a matching one is a no-op, and a conflicting one is
    /// refused — never silently ignored.
    fn reconcile_standby(&self, k: usize, standby: Option<&str>) -> Result<(), EngineError> {
        let Some(want) = standby else { return Ok(()) };
        {
            let mut slots = self.slots.write();
            match &slots[k].standby {
                Some(have) if have == want => return Ok(()),
                Some(have) => {
                    let have = have.clone();
                    return Err(EngineError::BadRequest(format!(
                        "rebalance: shard {k} ({add}) already has standby {have:?}; \
                         refusing to replace it with {want:?} — edit the topology \
                         file to change standbys",
                        add = slots[k].upstream.addr(),
                    )));
                }
                None => slots[k].standby = Some(want.to_string()),
            }
        }
        self.persist_topology()
    }

    /// Ships one database to the new shard and commits its placement
    /// flip. Mutations are blocked (structured retry) from `begin_move`
    /// to `finish_move`, and mutations already past the check are fenced
    /// out via `move_gate` before the snapshot is fetched; reads keep
    /// hitting the old shard, whose copy is thus frozen, so the shipped
    /// snapshot can't miss an acked write.
    fn move_database(
        &self,
        name: &str,
        new_index: usize,
        new_up: &Upstream,
    ) -> Result<(), EngineError> {
        let old = self.front.shard_of(name);
        self.front.topology().write().begin_move(name);
        // The fence: every mutation that passed the mid-move check
        // before `begin_move` holds the gate for read across its
        // forward, so this write acquisition returns only once each of
        // them has been applied (and acked) by the old shard — the copy
        // exported below misses none of them. Later mutations see the
        // moving flag and are refused with the structured retry.
        drop(self.move_gate.write());
        if let Err(e) = self.ship_database(name, old, new_up) {
            self.front.topology().write().abort_move(name);
            return Err(e);
        }
        self.front.topology().write().finish_move(name, new_index);
        self.moves.fetch_add(1, Ordering::Relaxed);
        self.persist_topology()?;
        // Drop the source copy — addressed at the old shard directly,
        // never routed: the placement already points at the new one.
        let drop_line = Json::obj([
            ("name", Json::from(name.to_string())),
            ("op", Json::from("drop_db")),
        ])
        .to_string();
        let resp = RouteProxy::forward_up(&self.upstream(old), &drop_line)?;
        if !is_ok(&resp) {
            return Err(EngineError::Storage(format!(
                "rebalance: moved {name:?} to shard {new_index} but dropping it from \
                 shard {old} failed: {resp}; drop it there manually, then re-issue \
                 the rebalance"
            )));
        }
        Ok(())
    }

    /// The shipping leg: `fetch_snapshot` from the old shard,
    /// `install_snapshot` on the new upstream (version, plan and
    /// violations preserved exactly — answers stay bit-identical).
    fn ship_database(&self, name: &str, old: usize, new_up: &Upstream) -> Result<(), EngineError> {
        let fetch = Json::obj([
            ("db", Json::from(name.to_string())),
            ("op", Json::from("fetch_snapshot")),
        ])
        .to_string();
        let resp = RouteProxy::forward_up(&self.upstream(old), &fetch)?;
        if !is_ok(&resp) {
            return Err(EngineError::Storage(format!(
                "rebalance: fetch_snapshot of {name:?} from shard {old} refused: {resp}"
            )));
        }
        let Some(image) = resp.get("image").and_then(Json::as_str) else {
            return Err(EngineError::Storage(format!(
                "rebalance: fetch_snapshot of {name:?} returned no image"
            )));
        };
        let install = Json::obj([
            ("db", Json::from(name.to_string())),
            ("image", Json::from(image.to_string())),
            ("op", Json::from("install_snapshot")),
        ])
        .to_string();
        let resp = RouteProxy::forward_up(new_up, &install)?;
        if !is_ok(&resp) {
            return Err(EngineError::Storage(format!(
                "rebalance: install_snapshot of {name:?} on {} refused: {resp}",
                new_up.addr()
            )));
        }
        Ok(())
    }

    /// One background probe sweep: a lightweight `stats` exchange per
    /// upstream (hot re-dialing recovered ones), tracking consecutive
    /// failures in `fails` (resized to the slot count); a primary at
    /// [`FAILOVER_AFTER`] consecutive failures with a standby configured
    /// is failed over. Public so tests drive the sweep deterministically
    /// instead of racing the `--probe-ms` thread.
    pub fn probe_once(&self, fails: &mut Vec<u32>) {
        let slots: Vec<(Arc<Upstream>, bool)> = self
            .slots
            .read()
            .iter()
            .map(|s| (s.upstream.clone(), s.standby.is_some()))
            .collect();
        fails.resize(slots.len(), 0);
        for (k, (up, has_standby)) in slots.into_iter().enumerate() {
            if up.probe().is_ok() {
                fails[k] = 0;
                continue;
            }
            fails[k] += 1;
            if has_standby && fails[k] >= FAILOVER_AFTER {
                match self.fail_over(k) {
                    Ok(()) => fails[k] = 0,
                    // Refused (lagging or unreachable standby): log once
                    // at the threshold, then keep retrying each sweep —
                    // a lagging standby stays refused, an unreachable
                    // one may come back.
                    Err(e) if fails[k] == FAILOVER_AFTER => eprintln!(
                        "{}",
                        Json::obj([
                            ("error", Json::from(e.to_string())),
                            ("event", Json::from("failover_refused")),
                            ("shard", Json::from(k as u64)),
                        ])
                    ),
                    Err(_) => {}
                }
            }
        }
    }

    /// Fails shard `k` over to its standby: the standby (which replayed
    /// every acked mutation via the serve side's `--replicate-to`
    /// synchronous op-stream) replaces the primary at a new epoch.
    /// Refused if no standby is configured, if the primary last reported
    /// a non-zero `replication_lag` (a standby that detached mid-stream
    /// missed acked writes — promoting it would silently lose them), or
    /// if the standby itself is unreachable — a failover must never
    /// trade a dead shard for a dead or diverged one.
    pub fn fail_over(&self, k: usize) -> Result<(), EngineError> {
        let _admin = self.admin.lock();
        let (dead, standby, lag) = {
            let slots = self.slots.read();
            let slot = slots
                .get(k)
                .ok_or_else(|| EngineError::BadRequest(format!("fail_over: no shard {k}")))?;
            let Some(standby) = slot.standby.clone() else {
                return Err(EngineError::Unavailable(format!(
                    "shard {k} ({}) has no standby to fail over to",
                    slot.upstream.addr()
                )));
            };
            (
                slot.upstream.addr().to_string(),
                standby,
                slot.upstream.probed_lag(),
            )
        };
        if lag > 0 {
            return Err(EngineError::Unavailable(format!(
                "shard {k} standby {standby}: the primary last reported \
                 replication_lag {lag} — the standby detached mid-stream and \
                 missed acked writes; refusing to promote it (rebuild the \
                 standby from the primary's store instead)"
            )));
        }
        let up = Upstream::new(standby.clone());
        up.probe()
            .map_err(|e| EngineError::Unavailable(format!("shard {k} standby {standby}: {e}")))?;
        {
            let mut slots = self.slots.write();
            slots[k].upstream = Arc::new(up);
            slots[k].standby = None;
        }
        let epoch = self.front.topology().write().bump_epoch();
        self.persist_topology()?;
        eprintln!(
            "{}",
            Json::obj([
                ("epoch", Json::from(epoch)),
                ("event", Json::from("failover")),
                ("from", Json::from(dead)),
                ("shard", Json::from(k as u64)),
                ("to", Json::from(standby)),
            ])
        );
        Ok(())
    }

    /// Writes the membership record to `--topology PATH` (tmp+rename, so
    /// a crash never leaves a torn file). A no-op without the flag.
    fn persist_topology(&self) -> Result<(), EngineError> {
        let Some(path) = self.topology_path.as_deref() else {
            return Ok(());
        };
        let json = {
            let slots = self.slots.read();
            Json::obj([
                ("epoch", Json::from(self.front.epoch())),
                (
                    "standbys",
                    Json::Arr(
                        slots
                            .iter()
                            .map(|s| Json::from(s.standby.clone().unwrap_or_else(|| "-".into())))
                            .collect(),
                    ),
                ),
                (
                    "upstreams",
                    Json::Arr(
                        slots
                            .iter()
                            .map(|s| Json::from(s.upstream.addr().to_string()))
                            .collect(),
                    ),
                ),
            ])
        };
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, format!("{json}\n"))
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| EngineError::Storage(format!("topology file {}: {e}", path.display())))
    }
}

/// Loads a persisted membership record. Malformed content is a hard
/// [`EngineError::Storage`] — a router must never guess its topology.
fn load_topology(path: &Path) -> Result<PersistedTopology, EngineError> {
    let bad = |m: String| EngineError::Storage(format!("topology file {}: {m}", path.display()));
    let text = std::fs::read_to_string(path).map_err(|e| bad(e.to_string()))?;
    let v = crate::json::parse(text.trim()).map_err(|e| bad(e.to_string()))?;
    let epoch = v
        .get("epoch")
        .and_then(Json::as_u64)
        .ok_or_else(|| bad("missing \"epoch\"".into()))?;
    let Some(Json::Arr(ups)) = v.get("upstreams") else {
        return Err(bad("missing \"upstreams\" array".into()));
    };
    let upstreams = ups
        .iter()
        .map(|u| {
            u.as_str()
                .map(str::to_string)
                .ok_or_else(|| bad("non-string upstream entry".into()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if upstreams.is_empty() {
        return Err(bad("no upstreams".into()));
    }
    let standbys = match v.get("standbys") {
        Some(Json::Arr(entries)) => entries
            .iter()
            .map(|s| {
                s.as_str()
                    .map(|s| (s != "-").then(|| s.to_string()))
                    .ok_or_else(|| bad("non-string standby entry".into()))
            })
            .collect::<Result<Vec<_>, _>>()?,
        None => Vec::new(),
        Some(_) => return Err(bad("\"standbys\" is not an array".into())),
    };
    Ok(PersistedTopology {
        epoch,
        upstreams,
        standbys,
    })
}

/// Spawns the `--probe-ms` background prober: a detached thread holding
/// only a weak handle (it dies with the router), sweeping every upstream
/// each interval via [`RouteProxy::probe_once`].
fn spawn_prober(proxy: &Arc<RouteProxy>, probe_ms: u64) {
    let weak = Arc::downgrade(proxy);
    let interval = Duration::from_millis(probe_ms.max(1));
    let _ = std::thread::Builder::new()
        .name("ocqa-probe".into())
        .spawn(move || {
            let mut fails: Vec<u32> = Vec::new();
            loop {
                std::thread::sleep(interval);
                let Some(proxy) = weak.upgrade() else { return };
                proxy.probe_once(&mut fails);
            }
        });
}

/// Relays one routed subscription's pushed frames from its dedicated
/// upstream session to the client **verbatim**. An upstream
/// `"event":"closed"` frame ends the subscription (relayed, then
/// deregistered); a dead upstream synthesizes one with reason
/// `"upstream"` — unless the subscription was already torn down locally
/// (unsubscribe, client disconnect), in which case the client hears
/// nothing further.
fn spawn_relay(
    mut stream: StreamSession,
    subs: Arc<Mutex<HashMap<SubKey, TcpStream>>>,
    key: SubKey,
    session: PushSession,
) -> std::io::Result<()> {
    let run = move || loop {
        match stream.read() {
            Ok(Frame::Line(frame)) => {
                let ended = crate::json::parse(&frame)
                    .ok()
                    .map(|v| v.get("event").and_then(Json::as_str) == Some("closed"))
                    .unwrap_or(false);
                if ended {
                    // Deregister *before* delivering the terminal frame:
                    // a subscriber reacting to it with `unsubscribe`
                    // must get the canonical unknown-subscription error,
                    // exactly like an in-process session whose shard
                    // already removed the registration.
                    if subs.lock().remove(&key).is_some() {
                        session.remove_sub();
                    }
                    session.push(frame);
                    return;
                }
                if session.push(frame) == PushOutcome::Closed {
                    return; // client gone; on_close owns the teardown
                }
            }
            Ok(Frame::Eof | Frame::TooLong | Frame::NotUtf8) | Err(_) => {
                // The upstream died (or spoke garbage). If the
                // subscription is still live locally, tell the client —
                // a killed upstream must end as a structured close, not
                // a silent hang.
                if subs.lock().remove(&key).is_some() {
                    session.remove_sub();
                    session.push(subscribe::closed_frame(&key.1, key.2, "upstream"));
                }
                return;
            }
        }
    };
    std::thread::Builder::new()
        .name("ocqa-relay".into())
        .spawn(run)
        .map(|_| ())
}

impl LineService for RouteProxy {
    fn serve_line(&self, line: &str) -> String {
        self.handle_line(line)
    }

    fn serve_open_line(&self, line: &str, session: &PushSession) -> String {
        self.handle_open_line(line, session)
    }
}

/// Renders an error response, shard-tagged like the in-process engine
/// tags errors from routed requests.
fn error_line(shard: Option<u32>, e: EngineError) -> String {
    let mut json = EngineResponse::Error(e).to_json();
    if let Some(k) = shard {
        json.set("shard", Json::from(u64::from(k)));
    }
    json.to_string()
}

fn is_ok(resp: &Json) -> bool {
    resp.get("ok").and_then(Json::as_bool) == Some(true)
}

/// Parses an upstream `list` response into catalog infos.
fn parse_list(v: &Json) -> Result<Vec<DatabaseInfo>, String> {
    if !is_ok(v) {
        return Err(format!("upstream refused list: {v}"));
    }
    let Some(Json::Arr(dbs)) = v.get("databases") else {
        return Err("no databases array".into());
    };
    dbs.iter().map(parse_info).collect()
}

fn parse_info(v: &Json) -> Result<DatabaseInfo, String> {
    let field = |key: &str| v.get(key).ok_or_else(|| format!("missing {key:?}"));
    let num = |key: &str| field(key)?.as_u64().ok_or_else(|| format!("bad {key:?}"));
    Ok(DatabaseInfo {
        name: field("name")?.as_str().ok_or("bad \"name\"")?.to_string(),
        version: num("version")?,
        facts: num("facts")? as usize,
        violations: num("violations")? as usize,
        plan: field("plan")?
            .as_str()
            .and_then(PlanKind::parse)
            .ok_or("bad \"plan\"")?,
    })
}

/// Parses an upstream `stats` response into its backend label, the
/// per-shard counter block the front door sums, and the upstream's
/// deployment-level `replication_lag` (tolerantly `0` when absent).
fn parse_stats(v: &Json) -> Result<(String, ShardStats, u64), String> {
    if !is_ok(v) {
        return Err(format!("upstream refused stats: {v}"));
    }
    let num = |key: &str| {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing counter {key:?}"))
    };
    let stats = ShardStats {
        answers: num("answers")?,
        walks: num("walks")?,
        coalesced: num("coalesced")?,
        databases: num("databases")? as usize,
        prepared: num("prepared")? as usize,
        workers: num("workers")? as usize,
        subscriptions: num("subscriptions")? as usize,
        cache: crate::cache::CacheStats {
            hits: num("cache_hits")?,
            misses: num("cache_misses")?,
            invalidated: num("cache_invalidated")?,
            evicted: num("cache_evicted")?,
            stale_drops: num("cache_stale_drops")?,
        },
    };
    let backend = v
        .get("backend")
        .and_then(Json::as_str)
        .ok_or("missing \"backend\"")?
        .to_string();
    let lag = v.get("replication_lag").and_then(Json::as_u64).unwrap_or(0);
    Ok((backend, stats, lag))
}

/// Parses an upstream `metrics` response, merging the upstream's shards
/// (usually just one — each upstream is an `ocqa serve --shards 1`, but
/// a multi-shard upstream aggregates correctly too, because histogram
/// merging is associative) into one snapshot for its global shard slot,
/// plus the upstream's replication lag (tolerantly `0` when absent —
/// the field only exists once `--replicate-to` ships).
fn parse_metrics(v: &Json) -> Result<(MetricsSnapshot, u64), String> {
    if !is_ok(v) {
        return Err(format!("upstream refused metrics: {v}"));
    }
    let Some(Json::Arr(shards)) = v.get("per_shard") else {
        return Err("no per_shard array".into());
    };
    let mut merged = MetricsSnapshot::default();
    for entry in shards {
        merged.merge(&MetricsSnapshot::from_json(entry)?);
    }
    let lag = v.get("replication_lag").and_then(Json::as_u64).unwrap_or(0);
    Ok((merged, lag))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_policy_matches_request_kinds() {
        let req = parse_request(r#"{"op":"ping"}"#).unwrap().1;
        assert_eq!(route_of(&req), RouteTarget::Local);
        let req = parse_request(r#"{"op":"create_db","name":"kv"}"#)
            .unwrap()
            .1;
        assert_eq!(route_of(&req), RouteTarget::Database("kv"));
        let req = parse_request(r#"{"op":"answer","db":"kv","query":"(x) <- R(x)"}"#)
            .unwrap()
            .1;
        assert_eq!(route_of(&req), RouteTarget::Database("kv"));
        let req = parse_request(r#"{"op":"prepare","query":"(x) <- R(x)"}"#)
            .unwrap()
            .1;
        assert_eq!(route_of(&req), RouteTarget::Authority);
        let req = parse_request(r#"{"op":"prepared_get","id":"q1"}"#)
            .unwrap()
            .1;
        assert_eq!(route_of(&req), RouteTarget::Authority);
        let req = parse_request(r#"{"op":"list"}"#).unwrap().1;
        assert_eq!(route_of(&req), RouteTarget::FanOut);
        let req = parse_request(r#"{"op":"stats"}"#).unwrap().1;
        assert_eq!(route_of(&req), RouteTarget::FanOut);
        let req = parse_request(r#"{"op":"metrics"}"#).unwrap().1;
        assert_eq!(route_of(&req), RouteTarget::FanOut);
        assert_eq!(req.op_name(), "metrics");
    }

    #[test]
    fn seed_rejects_duplicate_recovery() {
        let front = FrontDoor::new(3);
        front.seed(0, ["alpha", "bravo"]).unwrap();
        front.seed(1, ["charlie"]).unwrap();
        let err = front.seed(2, ["bravo"]).unwrap_err();
        assert!(err.to_string().contains("shard 0 and shard 2"), "{err}");
        // Seeded placements win over the router's assignment.
        assert_eq!(front.shard_of("alpha"), 0);
        assert_eq!(front.shard_of("charlie"), 1);
    }

    #[test]
    fn placements_follow_create_and_drop() {
        let front = FrontDoor::new(4);
        let routed = front.shard_of("kv");
        // A create pins the name even somewhere the router wouldn't put it.
        let pinned = (routed + 1) % 4;
        front.record_create("kv", pinned);
        assert_eq!(front.shard_of("kv"), pinned);
        front.record_drop("kv");
        assert_eq!(front.shard_of("kv"), routed, "drop frees the name");
    }

    #[test]
    fn merge_lists_sorts_across_shards() {
        let info = |name: &str| DatabaseInfo {
            name: name.into(),
            version: 1,
            facts: 0,
            violations: 0,
            plan: PlanKind::Monolithic,
        };
        let merged = FrontDoor::merge_lists([
            vec![info("delta"), info("echo")],
            vec![info("alpha")],
            vec![info("charlie")],
        ]);
        let names: Vec<&str> = merged.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, ["alpha", "charlie", "delta", "echo"]);
    }
}
