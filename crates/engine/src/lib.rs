//! `ocqa-engine` — a concurrent, cache-aware serving layer for
//! operational consistent query answering.
//!
//! Theorem 9 of the source paper makes CQA a *servable* workload: the
//! `Sample` random walk approximates operational consistent answers with
//! additive error for **all** FO queries. This crate turns the batch
//! library into a long-lived engine around that result:
//!
//! The request path is an explicit three-stage architecture — **front
//! door → router → shard**. The [`Engine`] front door parses and routes;
//! the [`Router`] deterministically maps each database name to a shard
//! (rendezvous hashing, so resharding moves a minimal set of names); and
//! each [`ShardEngine`] is a self-contained serving engine over its
//! slice of the catalog, with its own cache, pool, prepared registry and
//! storage backend:
//!
//! * [`Catalog`] — named, versioned databases with incremental fact
//!   insert/delete; the violation index `V(D, Σ)` is maintained through
//!   `ocqa_logic::incremental` rather than recomputed per update, and
//!   sampling snapshots reuse it via `RepairContext::with_violations`;
//! * [`DbImage`] ([`image`]) — one database's whole serving state
//!   `(D, Σ, V(D, Σ))` plus version and plan class, as **one** struct
//!   with **one** binary codec. A catalog entry holds one; the
//!   [`StorageBackend`] seam journals and recovers them; `ocqa-store`
//!   writes them as snapshot files and WAL install records;
//!   `fetch_snapshot` / `install_snapshot` ship one between shards
//!   ([`transfer`]: the same frame, base64-wrapped). Recovery and a
//!   shipped install are the same call, [`Catalog::restore`];
//! * [`PreparedQuery`] / [`PreparedRegistry`] — parse and validate a
//!   query once, reuse the handle across requests;
//! * [`SamplerPool`] — a fixed set of long-lived worker threads over one
//!   FIFO queue of in-flight requests: each request's walk budget is
//!   split into fixed-size chunks with per-chunk seed derivation, and
//!   every idle worker joins the oldest request that still has chunks —
//!   answers are bit-identical for a fixed seed regardless of pool size;
//! * [`DbPlan`] / [`SampleTask`] — the answer planner: each database is
//!   classified at install time (primary-key-only → group-wise key
//!   repair; denial fragment → per-component localized sampling;
//!   otherwise monolithic chain walks) and every `answer` routes down
//!   the cheapest sound path for its generator, reported back as the
//!   response's `plan` field;
//! * [`AnswerCache`] — an LRU keyed by database version × query ×
//!   generator × ε/δ × seed, invalidated by catalog updates, with an
//!   optional per-entry TTL for time-bounded staleness;
//! * [`SingleFlight`] — answer-path coalescing: N concurrent cache
//!   misses for one fully-qualified key block on a single sampling run
//!   and share its (bit-identical) result;
//! * [`EngineRequest`] / [`EngineResponse`] — the newline-delimited JSON
//!   protocol served by [`serve_stdio`] / [`serve_listener`] (the
//!   `ocqa serve` CLI subcommand);
//! * [`FrontDoor`] / [`RouteProxy`] / [`Upstream`] — the
//!   transport-agnostic front-door core and the multi-process router
//!   built on it (the `ocqa route` CLI subcommand): the same routing,
//!   fan-out and merge logic, proxied over pooled NDJSON/TCP
//!   connections to remote shard servers, with byte-identical responses
//!   to the in-process deployment;
//! * [`obs`] — engine-wide observability: lock-free per-op / per-plan /
//!   per-stage latency histograms reported by the `metrics` protocol op
//!   (and merged bucket-wise through `ocqa route`), `--slow-ms`
//!   structured trace events on stderr, and the `--metrics-addr`
//!   Prometheus exposition listener;
//! * [`subscribe`] — streaming CQA: session-scoped continuous queries
//!   registered by the `subscribe` protocol op; each update diffs the
//!   maintained violation set and pushes `"event":"estimate"` NDJSON
//!   frames only to subscribers whose conflict components the delta
//!   touched, through bounded per-session queues with slow-consumer
//!   shedding, relayed byte-identically by `ocqa route`.
//!
//! ```
//! use ocqa_engine::{Engine, EngineConfig};
//!
//! let engine = Engine::new(EngineConfig {
//!     workers: 2,
//!     cache_capacity: 64,
//!     ..EngineConfig::default()
//! });
//! let out = engine.handle_line(
//!     r#"{"op":"create_db","name":"prefs",
//!         "facts":"Pref(a,b). Pref(b,a).",
//!         "constraints":"Pref(x,y), Pref(y,x) -> false."}"#,
//! );
//! assert!(out.to_string().contains("\"ok\":true"));
//! let out = engine.handle_line(
//!     r#"{"op":"answer","db":"prefs","query":"(x) <- exists y: Pref(x,y)","seed":7}"#,
//! );
//! assert!(out.to_string().contains("\"answers\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod catalog;
mod engine;
mod error;
pub mod frontdoor;
pub mod image;
pub mod json;
pub mod obs;
pub mod planner;
pub mod pool;
pub mod prepared;
pub mod proto;
pub mod router;
pub mod server;
pub mod shard;
pub mod singleflight;
pub mod storage;
pub mod subscribe;
pub mod transfer;
pub mod upstream;

pub use cache::{AnswerCache, CacheKey, CacheStats};
pub use catalog::{Catalog, DatabaseInfo, ParsedDatabase, UpdateOutcome};
pub use engine::{generator_by_name, Engine, EngineConfig};
pub use error::EngineError;
pub use frontdoor::{
    parse_request, route_of, FrontDoor, RouteConfig, RouteProxy, RouteTarget, FAILOVER_AFTER,
};
pub use image::DbImage;
pub use obs::expo::{render_prometheus, spawn_exposition_listener};
pub use obs::{HistSnapshot, Histogram, MetricsSnapshot, ShardMetrics, SlowLog};
pub use planner::{
    classify, feasibility_gate, Candidate, CostModel, CostSource, DbPlan, DbStats, Estimate,
    PlanKind, PlannerMode, SampleTask,
};
pub use pool::{derive_seed, SamplerPool, CHUNK_WALKS};
pub use prepared::{PreparedQuery, PreparedRegistry};
pub use proto::{
    AnswerPayload, AnswerRow, EngineRequest, EngineResponse, ExplainPayload, QueryRef,
};
pub use router::{Router, Topology};
pub use server::{
    serve_listener, serve_listener_with, serve_session, serve_stdio, Frame, LineService,
    MAX_LINE_BYTES,
};
pub use shard::{ShardEngine, ShardStats};
pub use singleflight::SingleFlight;
pub use storage::{
    FeedbackImage, HotKey, MemoryBackend, PlanFeedback, RecoveredState, StorageBackend, UpdateDelta,
};
pub use subscribe::{PushOutcome, PushSession, Subscription, SubscriptionRegistry};
pub use transfer::{decode_image, encode_image};
pub use upstream::Upstream;
