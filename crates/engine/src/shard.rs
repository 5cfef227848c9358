//! One shard of the serving engine: a catalog partition with its own
//! cache, sampler pool, prepared registry and storage backend.
//!
//! A [`ShardEngine`] is exactly what the pre-sharding `Engine` was — the
//! paper's operational semantics makes every `answer` an independent
//! Monte-Carlo estimate over *one* database, so a catalog partitioned by
//! database name shards with no cross-shard coordination at all. The
//! front door ([`crate::Engine`]) owns the name → shard mapping
//! ([`crate::Router`]) and fans `list`/`stats` out; everything else —
//! violation maintenance, planning, sampling, caching, journaling —
//! happens here, per shard, against shard-local state.
//!
//! Locking discipline (unchanged from the monolithic engine): the
//! catalog and cache locks are held only to read or mutate metadata —
//! never across sampling. An `answer` takes a snapshot
//! (`Arc<RepairContext>`) under the catalog lock, releases it, samples
//! on the shard's pool, and re-takes the cache lock to store the result.
//!
//! # Single-flight answers
//!
//! The answer path coalesces identical concurrent misses: the first miss
//! for a fully-qualified cache key becomes the **leader** and samples;
//! every concurrent miss for the same key blocks on the leader's
//! [`crate::singleflight::Flight`] and shares its tally. N concurrent
//! cold requests for one key therefore cost **one** sampling run — the
//! `walks` counter moves once — and, by the determinism contract, every
//! caller receives bit-identical estimates. Coalesced serves are marked
//! `coalesced: true` in the payload and counted in
//! [`ShardStats::coalesced`].
//!
//! # Admission control
//!
//! At most [`crate::EngineConfig::max_inflight`] leaders may sample
//! concurrently per shard. Beyond that the request is rejected with
//! [`EngineError::ShardFull`] *before any success counter moves*, so a
//! client retry is accounted as a fresh request — `answers` and `walks`
//! can never double-count a retried request. Admission is checked
//! *before* a single-flight entry can be created: a rejected request
//! never becomes a leader, so followers — who need no sampling slot —
//! can never inherit someone else's overload rejection, and a full
//! shard still serves every request that can coalesce onto an admitted
//! in-flight run.

use crate::cache::{AnswerCache, CacheKey, CacheStats};
use crate::catalog::{Catalog, DatabaseInfo, UpdateOutcome};
use crate::engine::{generator_by_name, EngineConfig};
use crate::error::EngineError;
use crate::image::DbImage;
use crate::json::Json;
use crate::obs::{MetricsSnapshot, Op, ShardMetrics, SlowLog, Stage};
use crate::planner::PlanKind;
use crate::pool::SamplerPool;
use crate::prepared::{PreparedQuery, PreparedRegistry};
use crate::proto::{AnswerPayload, AnswerRow, ExplainPayload, QueryRef};
use crate::singleflight::{Join, SingleFlight};
use crate::storage::StorageBackend;
use crate::subscribe::{self, PushOutcome, PushSession, Subscription, SubscriptionRegistry};
use ocqa_core::sample::{sample_size, SampleTally};
use parking_lot::{Mutex, RwLock};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Per-shard serving counters, summed by the front door's `stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// `answer` requests served by this shard (computed, cached or
    /// coalesced).
    pub answers: u64,
    /// Sample walks executed by this shard's pool.
    pub walks: u64,
    /// Answers served by joining another request's in-flight sampling
    /// run (the single-flight follower path).
    pub coalesced: u64,
    /// Databases in this shard's catalog.
    pub databases: usize,
    /// Prepared queries in this shard's registry.
    pub prepared: usize,
    /// Worker threads in this shard's sampler pool.
    pub workers: usize,
    /// Live subscriptions in this shard's registry.
    pub subscriptions: usize,
    /// This shard's answer-cache counters.
    pub cache: CacheStats,
}

/// One shard: a full, self-contained serving engine over a slice of the
/// catalog, rooted (when durable) at its own `shard-<k>/` data directory
/// with its own LOCK, WAL and snapshots.
pub struct ShardEngine {
    id: u32,
    catalog: RwLock<Catalog>,
    cache: Mutex<AnswerCache>,
    prepared: RwLock<PreparedRegistry>,
    backend: Arc<dyn StorageBackend>,
    pool: SamplerPool,
    flights: SingleFlight,
    /// Leaders currently sampling (admission control; followers and
    /// cache hits never consume a slot).
    inflight: AtomicU64,
    max_inflight: u64,
    max_walks: u64,
    /// Self-reference for subscription teardown callbacks.
    self_ref: Weak<ShardEngine>,
    answers: AtomicU64,
    walks: AtomicU64,
    coalesced: AtomicU64,
    metrics: ShardMetrics,
    slow: SlowLog,
    /// Live continuous queries (session-scoped, never journaled).
    subs: SubscriptionRegistry,
    /// Per-connection subscription ceiling (`--max-subs-per-conn`).
    max_subs: usize,
}

/// Stage timings of one `answer`, carried to the success return for the
/// slow-request trace event.
#[derive(Debug, Clone, Copy, Default)]
struct AnswerTrace {
    cache_lookup: Duration,
    flight_wait: Duration,
    sample: Duration,
}

/// RAII admission slot: only sampling leaders hold one. Reserved
/// **before** a single-flight entry can be created, so an admission
/// rejection is always private to the rejected request; released on
/// drop, surviving panicking samplers.
struct Slot<'a>(&'a AtomicU64);

impl<'a> Slot<'a> {
    /// Claims a slot if the shard is under `max` concurrent samplers.
    fn reserve(counter: &'a AtomicU64, max: u64) -> Option<Slot<'a>> {
        if counter.fetch_add(1, Ordering::AcqRel) >= max {
            counter.fetch_sub(1, Ordering::AcqRel);
            return None;
        }
        Some(Slot(counter))
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl ShardEngine {
    /// Builds shard `id` on a storage backend: the backend's persisted
    /// state is recovered first — databases with their exact versions,
    /// violation sets and planner classifications, and prepared queries
    /// with their original ordinal handles — and every subsequent
    /// mutation is journaled write-through. A recovered shard serves
    /// bit-identical answers to its pre-restart self for equal requests.
    ///
    /// `config` is the *per-shard* configuration — the front door divides
    /// worker threads and cache capacity across shards before calling
    /// this.
    pub fn with_backend(
        config: EngineConfig,
        backend: Arc<dyn StorageBackend>,
        id: u32,
    ) -> Result<Arc<ShardEngine>, EngineError> {
        let state = backend.recover()?;
        let mut catalog = Catalog::new();
        for image in state.databases {
            catalog.restore(image, |_| Ok(()))?;
        }
        catalog.raise_version_floor(state.next_version);
        let mut prepared = PreparedRegistry::new();
        prepared.restore(state.prepared, state.prepared_next)?;
        Ok(Arc::new_cyclic(|self_ref| ShardEngine {
            id,
            catalog: RwLock::new(catalog),
            cache: Mutex::new(AnswerCache::new(config.cache_capacity)),
            prepared: RwLock::new(prepared),
            backend,
            pool: SamplerPool::new(config.workers),
            flights: SingleFlight::new(),
            inflight: AtomicU64::new(0),
            max_inflight: config.max_inflight as u64,
            max_walks: config.max_walks.max(1),
            self_ref: self_ref.clone(),
            answers: AtomicU64::new(0),
            walks: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            metrics: ShardMetrics::new(),
            slow: SlowLog::new(config.slow_ms),
            subs: SubscriptionRegistry::new(),
            max_subs: config.max_subs_per_conn,
        }))
    }

    /// This shard's index (also the `shard` field of its responses).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The storage backend's label (`"memory"`, `"disk"`, …).
    pub fn backend_label(&self) -> &'static str {
        self.backend.label()
    }

    /// The configured per-request walk ceiling.
    pub fn max_walks(&self) -> u64 {
        self.max_walks
    }

    /// Creates a database from source text (parse and `V(D, Σ)` outside
    /// the write lock; journal-before-mutate under it).
    pub fn create(
        &self,
        name: &str,
        facts: &str,
        constraints: &str,
    ) -> Result<DatabaseInfo, EngineError> {
        let t0 = Instant::now();
        let parsed = crate::catalog::ParsedDatabase::parse(facts, constraints)?;
        let wal = Cell::new(Duration::ZERO);
        let info = self
            .catalog
            .write()
            .install_with(name, parsed, |image| self.journal_install(image, &wal))?;
        self.observe_mutation(t0, Op::Install, name, wal.get());
        Ok(info)
    }

    /// Journals an install, timing the append into `wal` and the
    /// `wal_append` stage histogram.
    fn journal_install(&self, image: &DbImage, wal: &Cell<Duration>) -> Result<(), EngineError> {
        let t = Instant::now();
        let out = self.backend.journal_install(image);
        wal.set(t.elapsed());
        self.metrics.record_stage(Stage::WalAppend, wal.get());
        out
    }

    /// A copy of a database's [`DbImage`] (the payload of the
    /// `fetch_snapshot` protocol op): name, exact catalog version,
    /// constraint text, plan classification, facts and maintained
    /// violation set — everything the receiving shard needs to answer
    /// bit-identically without recomputing anything.
    pub fn export_snapshot(&self, name: &str) -> Result<DbImage, EngineError> {
        self.catalog.read().export(name)
    }

    /// Installs a [`DbImage`] shipped from another shard (the
    /// `install_snapshot` protocol op) — the same verbatim install
    /// recovery performs, journaled first like every other mutation; the
    /// image's version is kept so answer-cache keys and reported
    /// `db_version`s match the exporting shard exactly. Refused when the
    /// name already exists: the rebalancer moves **then** drops, so the
    /// target legitimately never has the database — an existing entry
    /// means a half-finished move, which must stay a hard error, never a
    /// silent overwrite. A vetoed journal leaves the shard without the
    /// database and the move can be retried from the source.
    pub fn install_snapshot(&self, image: DbImage) -> Result<DatabaseInfo, EngineError> {
        let t0 = Instant::now();
        let wal = Cell::new(Duration::ZERO);
        let info = self
            .catalog
            .write()
            .restore(image, |image| self.journal_install(image, &wal))?;
        self.observe_mutation(t0, Op::Install, &info.name, wal.get());
        Ok(info)
    }

    /// Drops a database, flooring the answer cache above the dropped
    /// incarnation's version.
    pub fn drop_db(&self, name: &str) -> Result<(), EngineError> {
        let t0 = Instant::now();
        let (version, wal) = {
            let mut catalog = self.catalog.write();
            let version = catalog.info(name)?.version;
            // Journal-then-mutate: a vetoed drop leaves the database.
            let t = Instant::now();
            self.backend.journal_drop(name, version)?;
            let wal = t.elapsed();
            self.metrics.record_stage(Stage::WalAppend, wal);
            catalog.drop_db(name);
            (version, wal)
        };
        // Floor above the dropped incarnation: a recreated database
        // starts at a strictly higher global version, so its entries pass
        // while any in-flight answer against the dropped one is rejected.
        self.cache.lock().invalidate_db(name, version + 1);
        // Continuous queries over the dropped database end here: each
        // subscriber gets a terminal `"event":"closed"` frame (after the
        // cache floor, so a post-frame `answer` can't see stale state).
        for sub in self.subs.remove_db(name) {
            // Slot release *before* the terminal frame: a subscriber
            // reacting to it with a fresh `subscribe` never bounces off
            // its own dying registration's limit slot.
            sub.session.remove_sub();
            sub.session
                .push(subscribe::closed_frame(name, sub.id, "dropped"));
        }
        self.observe_mutation(t0, Op::Drop, name, wal);
        Ok(())
    }

    /// Applies an insert/delete batch (fact-list source text).
    pub fn update(
        &self,
        db: &str,
        insert: &str,
        delete: &str,
    ) -> Result<UpdateOutcome, EngineError> {
        // Parse outside the lock; the locked phase is the incremental
        // violation update, proportional to the delta's neighbourhood.
        let t0 = Instant::now();
        let inserts = ocqa_logic::parser::parse_facts(insert)
            .map_err(|e| EngineError::Parse(e.to_string()))?;
        let deletes = ocqa_logic::parser::parse_facts(delete)
            .map_err(|e| EngineError::Parse(e.to_string()))?;
        let wal = Cell::new(Duration::ZERO);
        let (outcome, touched) =
            self.catalog
                .write()
                .update_parsed_with(db, &inserts, &deletes, |delta| {
                    let t = Instant::now();
                    let out = self.backend.journal_update(delta);
                    wal.set(t.elapsed());
                    self.metrics.record_stage(Stage::WalAppend, wal.get());
                    out
                })?;
        // An effective update bumps the version; purge dead entries
        // eagerly and floor the database so an in-flight answer that
        // sampled the pre-update snapshot cannot re-insert one. No-op
        // updates keep the version and the cache.
        if outcome.inserted > 0 || outcome.removed > 0 {
            self.cache.lock().invalidate_db(db, outcome.version);
        }
        // Ordering contract: subscriber pushes happen strictly *after*
        // the cache floor above, so a subscriber reacting to a pushed
        // frame with an immediate `answer` can never read a pre-update
        // tally. Clean-region-only updates have an empty touched set and
        // push (and resample) nothing.
        self.notify_update(db, &touched);
        self.observe_mutation(t0, Op::Update, db, wal.get());
        Ok(outcome)
    }

    /// Parses and registers a query text, returning the (possibly
    /// pre-existing) handle. New texts are journaled.
    pub fn prepare(&self, text: &str) -> Result<Arc<PreparedQuery>, EngineError> {
        let t0 = Instant::now();
        let prepared = self.prepared.write().prepare_with(text, |t, ord| {
            let w = Instant::now();
            let out = self.backend.journal_prepare(t, ord);
            self.metrics.record_stage(Stage::WalAppend, w.elapsed());
            out
        })?;
        self.metrics.record_op(Op::Prepare, t0.elapsed());
        Ok(prepared)
    }

    /// Resolves a prepared handle (the front door uses shard 0 as the
    /// handle authority when rewriting `prepared` refs for other shards).
    pub fn prepared_get(&self, id: &str) -> Result<Arc<PreparedQuery>, EngineError> {
        let t0 = Instant::now();
        let prepared = self.prepared.read().get(id)?;
        self.metrics.record_op(Op::PreparedGet, t0.elapsed());
        Ok(prepared)
    }

    /// Serves one `answer` request against this shard's catalog.
    #[allow(clippy::too_many_arguments)]
    pub fn answer(
        &self,
        db: &str,
        query_ref: &QueryRef,
        generator: &str,
        eps: f64,
        delta: f64,
        seed: u64,
        plan_request: Option<PlanKind>,
    ) -> Result<AnswerPayload, EngineError> {
        let t0 = Instant::now();
        if eps <= 0.0 || eps >= 1.0 || delta <= 0.0 || delta >= 1.0 {
            return Err(EngineError::BadRequest(
                "eps and delta must lie in (0,1)".into(),
            ));
        }
        let walks = sample_size(eps, delta);
        if walks > self.max_walks {
            return Err(EngineError::BadRequest(format!(
                "eps/delta require {walks} walks, above the engine limit of {}",
                self.max_walks
            )));
        }
        // Inline text is routed through the prepared registry too: the
        // parse/validate cost is paid once per distinct query text.
        let prepared = match query_ref {
            QueryRef::Text(text) => {
                // Fast path under the read lock: hot workloads repeat the
                // same inline text, and a write lock here would serialize
                // every concurrent answer. New inline texts are journaled
                // like explicit prepares — handle ids are ordinal, so
                // recovery must replay every allocation to reproduce them.
                let known = self.prepared.read().lookup_text(text);
                match known {
                    Some(p) => p,
                    None => self.prepare(text)?,
                }
            }
            QueryRef::Prepared(id) => self.prepared.read().get(id)?,
        };
        let gen = generator_by_name(generator)?;
        let (_ctx, version, plan) = self.catalog.read().snapshot(db)?;
        // Explicit requests are validated (unsound forces are errors, not
        // silent fallbacks); automatic ones take the cheapest feasible
        // plan for this version.
        let route = plan.route(gen.as_ref(), plan_request)?;
        let key = CacheKey {
            db: db.to_string(),
            version,
            query: prepared.text.clone(),
            generator: generator.to_string(),
            plan: route,
            eps_bits: eps.to_bits(),
            delta_bits: delta.to_bits(),
            seed,
        };
        // One lock acquisition serves both the lookup and the stats
        // snapshot reported alongside the answer.
        let mut trace = AnswerTrace::default();
        let lookup_t = Instant::now();
        let (hit, stats) = {
            let mut cache = self.cache.lock();
            let hit = cache.get(&key);
            let stats = cache.stats();
            (hit, stats)
        };
        // One clock read closes both the lookup stage and (on a hit) the
        // whole request — the cached path is the latency floor the
        // instrumentation must not erode.
        let looked_up = Instant::now();
        trace.cache_lookup = looked_up.duration_since(lookup_t);
        self.metrics
            .record_stage(Stage::CacheLookup, trace.cache_lookup);
        if let Some(tally) = hit {
            self.answers.fetch_add(1, Ordering::Relaxed);
            self.observe_answer(looked_up.duration_since(t0), db, route, true, false, trace);
            return Ok(self.payload(&tally, true, false, version, stats, route));
        }
        // Cache miss: coalesce or lead. Admission is checked *before* a
        // flight can be created — a request rejected for lack of a
        // sampling slot must never become a leader other requests pile
        // onto (one overload rejection would then fan out to N client
        // errors even though followers never need a slot). The sequence:
        //
        //   1. follow an existing flight, slot-free;
        //   2. otherwise reserve a sampling slot (rejected here = only
        //      this request fails, and no flight ever exists);
        //   3. with the slot held, join — losing the join race demotes
        //      to a follower and releases the slot.
        //
        // A follower whose flight resolves to `ShardFull` (impossible
        // from this code once leaders reserve first, but reachable from
        // older peers or future transports) re-joins instead of
        // propagating someone else's rejection.
        let (token, _slot) = loop {
            let flight = match self.flights.follow(&key) {
                Some(flight) => flight,
                None => match Slot::reserve(&self.inflight, self.max_inflight) {
                    Some(slot) => match self.flights.join(&key) {
                        Join::Leader(token) => break (token, slot),
                        Join::Follower(flight) => {
                            drop(slot); // lost the race; coalesce instead
                            flight
                        }
                    },
                    None => match self.flights.follow(&key) {
                        // A leader for this very key may have claimed the
                        // last slot in the window since the first peek —
                        // coalescing needs no slot, so re-check before
                        // turning the request away.
                        Some(flight) => flight,
                        None => return Err(EngineError::ShardFull(self.id)),
                    },
                },
            };
            let wait_t = Instant::now();
            let waited = flight.wait();
            trace.flight_wait += wait_t.elapsed();
            match waited {
                Ok(tally) => {
                    self.metrics
                        .record_stage(Stage::FlightWait, trace.flight_wait);
                    self.answers.fetch_add(1, Ordering::Relaxed);
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    let stats = self.cache.lock().stats();
                    self.observe_answer(t0.elapsed(), db, route, false, true, trace);
                    return Ok(self.payload(&tally, false, true, version, stats, route));
                }
                Err(EngineError::ShardFull(_)) => continue,
                Err(e) => return Err(e),
            }
        };
        // Leadership won — but the previous leader for this key may have
        // completed (cache insert, then flight retirement) between our
        // cache miss and our join. Re-check the cache so that window can
        // never trigger a redundant sampling run; the insert-before-
        // retire ordering below makes this re-check conclusive.
        let lookup_t = Instant::now();
        let (hit, stats) = {
            let mut cache = self.cache.lock();
            let hit = cache.get(&key);
            let stats = cache.stats();
            (hit, stats)
        };
        let recheck = lookup_t.elapsed();
        trace.cache_lookup += recheck;
        self.metrics.record_stage(Stage::CacheLookup, recheck);
        if let Some(tally) = hit {
            self.answers.fetch_add(1, Ordering::Relaxed);
            token.complete(Ok(tally.clone()));
            self.observe_answer(t0.elapsed(), db, route, true, false, trace);
            return Ok(self.payload(&tally, true, false, version, stats, route));
        }
        // Sample on the pool with no locks held; the admission slot is
        // released when `_slot` drops (RAII — like the leader token, it
        // must survive a panicking sampler, or each panic would
        // permanently shrink the shard's capacity).
        let sample_t = Instant::now();
        let result = plan
            .task(route, gen)
            .and_then(|task| self.pool.run(&task, &prepared.query, walks, seed))
            .map(Arc::new);
        trace.sample = sample_t.elapsed();
        self.metrics.record_stage(Stage::Sample, trace.sample);
        drop(_slot);
        let tally = match result {
            Ok(tally) => tally,
            Err(e) => {
                token.complete(Err(e.clone()));
                return Err(e);
            }
        };
        // Counters move only on success: a rejected or failed request
        // must inflate neither `answers` nor `walks`.
        self.walks.fetch_add(walks, Ordering::Relaxed);
        self.answers.fetch_add(1, Ordering::Relaxed);
        // Insert into the cache *before* retiring the flight: a caller
        // that misses the retired flight is guaranteed to hit the cache.
        let stats = self.store_answer(key, tally.clone());
        token.complete(Ok(tally.clone()));
        self.observe_answer(t0.elapsed(), db, route, false, false, trace);
        Ok(self.payload(&tally, false, false, version, stats, route))
    }

    /// Success-path bookkeeping for one `answer`: op and plan latency
    /// histograms, plus the `--slow-ms` trace event with the stage
    /// breakdown. Failed requests record no op/plan latency — mirroring
    /// the counter discipline, the timing families describe *served*
    /// requests only.
    fn observe_answer(
        &self,
        elapsed: Duration,
        db: &str,
        route: PlanKind,
        cached: bool,
        coalesced: bool,
        trace: AnswerTrace,
    ) {
        self.metrics.record_op(Op::Answer, elapsed);
        self.metrics.record_plan(route, elapsed);
        if self.slow.is_slow(elapsed) {
            let us = |d: Duration| Json::from(d.as_micros().min(u128::from(u64::MAX)) as u64);
            self.slow.emit(Json::obj([
                ("op", Json::from("answer")),
                ("db", Json::from(db)),
                ("shard", Json::from(u64::from(self.id))),
                ("plan", Json::from(route.as_str())),
                ("cached", Json::from(cached)),
                ("coalesced", Json::from(coalesced)),
                (
                    "elapsed_ms",
                    Json::from(elapsed.as_millis().min(u128::from(u64::MAX)) as u64),
                ),
                (
                    "stages",
                    Json::obj([
                        ("cache_lookup_us", us(trace.cache_lookup)),
                        ("flight_wait_us", us(trace.flight_wait)),
                        ("sample_us", us(trace.sample)),
                    ]),
                ),
            ]));
        }
    }

    /// Success-path bookkeeping for a journaled mutation: op latency
    /// histogram plus the slow-request event carrying the WAL append
    /// time (the stage itself is recorded where it is measured, inside
    /// the journal call).
    fn observe_mutation(&self, t0: Instant, op: Op, db: &str, wal: Duration) {
        let elapsed = t0.elapsed();
        self.metrics.record_op(op, elapsed);
        if self.slow.is_slow(elapsed) {
            self.slow.emit(Json::obj([
                ("op", Json::from(op.as_str())),
                ("db", Json::from(db)),
                ("shard", Json::from(u64::from(self.id))),
                (
                    "elapsed_ms",
                    Json::from(elapsed.as_millis().min(u128::from(u64::MAX)) as u64),
                ),
                (
                    "stages",
                    Json::obj([(
                        "wal_append_us",
                        Json::from(wal.as_micros().min(u128::from(u64::MAX)) as u64),
                    )]),
                ),
            ]));
        }
    }

    /// A snapshot of this shard's latency-metrics registry (the
    /// `metrics` protocol op's per-shard unit), stamped with the live
    /// subscription gauge.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.subscriptions = self.subs.len() as u64;
        snap
    }

    /// Explains the planner's decision for one database × generator:
    /// the plan an automatic answer would serve right now, with every
    /// candidate's feasibility verdict and analytic step count, plus the
    /// catalog-maintained statistics the counts derive from.
    pub fn explain(&self, db: &str, generator: &str) -> Result<ExplainPayload, EngineError> {
        let gen = generator_by_name(generator)?;
        let (_ctx, version, plan) = self.catalog.read().snapshot(db)?;
        let candidates = plan.candidates(gen.as_ref());
        Ok(ExplainPayload {
            db: db.to_string(),
            version,
            chosen: crate::planner::cost::cheapest(&candidates),
            candidates: candidates.to_vec(),
            stats: plan.stats(),
        })
    }

    /// Registers a continuous query on a streaming session. Validation
    /// mirrors [`answer`](Self::answer) — the database must exist, the
    /// generator and ε/δ must be serveable — and the per-connection
    /// subscription ceiling is enforced before anything registers. The
    /// query is resolved to its source text at subscribe time, so later
    /// prepared-registry churn cannot retarget a live subscription.
    /// Returns the shard-unique subscription id.
    #[allow(clippy::too_many_arguments)]
    pub fn subscribe(
        &self,
        session: &PushSession,
        db: &str,
        query_ref: &QueryRef,
        generator: &str,
        eps: f64,
        delta: f64,
        seed: u64,
        plan: Option<PlanKind>,
    ) -> Result<u64, EngineError> {
        if eps <= 0.0 || eps >= 1.0 || delta <= 0.0 || delta >= 1.0 {
            return Err(EngineError::BadRequest(
                "eps and delta must lie in (0,1)".into(),
            ));
        }
        let walks = sample_size(eps, delta);
        if walks > self.max_walks {
            return Err(EngineError::BadRequest(format!(
                "eps/delta require {walks} walks, above the engine limit of {}",
                self.max_walks
            )));
        }
        generator_by_name(generator)?;
        let prepared = match query_ref {
            QueryRef::Text(text) => {
                let known = self.prepared.read().lookup_text(text);
                match known {
                    Some(p) => p,
                    None => self.prepare(text)?,
                }
            }
            QueryRef::Prepared(id) => self.prepared.read().get(id)?,
        };
        self.catalog.read().info(db)?;
        if !session.try_add_sub(self.max_subs) {
            return Err(subscribe::subscribe_limit_error(self.max_subs));
        }
        let id = self.subs.next_id();
        self.subs.insert(Arc::new(Subscription {
            id,
            db: db.to_string(),
            query_text: prepared.text.clone(),
            relations: subscribe::query_relations(&prepared.query),
            generator: generator.to_string(),
            eps,
            delta,
            seed,
            plan,
            session: session.clone(),
        }));
        // Session teardown (disconnect, or the server loop closing the
        // channel) reaps the registration; idempotent alongside an
        // explicit unsubscribe or a database drop.
        let shard = self.self_ref.clone();
        session.on_close(move || {
            if let Some(shard) = shard.upgrade() {
                shard.subs.remove(id);
            }
        });
        Ok(id)
    }

    /// Cancels a subscription. The id must name a live subscription on
    /// `db` owned by `session` — ids are not guessable across sessions.
    pub fn unsubscribe(
        &self,
        session: &PushSession,
        db: &str,
        sub: u64,
    ) -> Result<(), EngineError> {
        match self
            .subs
            .remove_if(sub, |s| s.db == db && s.session.id() == session.id())
        {
            Some(_) => {
                session.remove_sub();
                Ok(())
            }
            None => Err(subscribe::unknown_subscription(db, sub)),
        }
    }

    /// Fans one effective update out to its affected subscribers: every
    /// live subscription on `db` whose relation footprint intersects the
    /// delta's touched components is re-estimated **at the new version**
    /// (through the regular answer path, so identical subscriptions
    /// coalesce on the cache) and pushed an `"event":"estimate"` frame.
    /// An empty touched set — a clean-region-only update — returns
    /// before sampling anything: repairs agree on the clean region, so
    /// no subscriber's tally can have moved.
    fn notify_update(&self, db: &str, touched: &[String]) {
        if touched.is_empty() || self.subs.is_empty() {
            return;
        }
        for sub in self.subs.affected(db, touched) {
            if sub.session.is_closed() {
                self.subs.remove(sub.id);
                continue;
            }
            let t0 = Instant::now();
            let payload = match self.answer(
                db,
                &QueryRef::Text(sub.query_text.clone()),
                &sub.generator,
                sub.eps,
                sub.delta,
                sub.seed,
                sub.plan,
            ) {
                Ok(payload) => payload,
                // Transient (e.g. the shard is at its sampling-admission
                // ceiling): skip this push rather than wedge the update.
                Err(_) => continue,
            };
            let frame = subscribe::estimate_frame(db, sub.id, &payload);
            match sub.session.push(frame) {
                PushOutcome::Delivered => {}
                PushOutcome::Shed => self.metrics.record_shed(),
                PushOutcome::Closed => {
                    self.subs.remove(sub.id);
                    continue;
                }
            }
            self.metrics.record_push(t0.elapsed());
        }
    }

    /// Stores a computed answer, returning the post-insert cache stats.
    /// The insert is version-checked: if an update (or drop) invalidated
    /// this database while the request was sampling, the cache drops the
    /// entry instead of re-inserting a dead version.
    pub(crate) fn store_answer(&self, key: CacheKey, tally: Arc<SampleTally>) -> CacheStats {
        let mut cache = self.cache.lock();
        cache.insert(key, tally);
        cache.stats()
    }

    fn payload(
        &self,
        tally: &SampleTally,
        cached: bool,
        coalesced: bool,
        version: u64,
        stats: CacheStats,
        plan: PlanKind,
    ) -> AnswerPayload {
        // Raw and conditional estimates zip positionally: both iterate
        // the same count map. `conditional_frequencies` is None only when
        // every walk failed, in which case there are no rows at all.
        let conditional = tally.conditional_frequencies().unwrap_or_default();
        let answers = tally
            .frequencies()
            .into_iter()
            .zip(conditional)
            .map(|((tuple, p), (_, p_cond))| AnswerRow { tuple, p, p_cond })
            .collect();
        AnswerPayload {
            answers,
            walks: tally.walks,
            failed_walks: tally.failed_walks,
            cached,
            coalesced,
            db_version: version,
            plan,
            cache: stats,
        }
    }

    /// Info for every database on this shard, sorted by name.
    pub fn list(&self) -> Vec<DatabaseInfo> {
        self.catalog.read().list()
    }

    /// This shard's serving counters.
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            answers: self.answers.load(Ordering::Relaxed),
            walks: self.walks.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            databases: self.catalog.read().len(),
            prepared: self.prepared.read().len(),
            workers: self.pool.workers(),
            subscriptions: self.subs.len(),
            cache: self.cache.lock().stats(),
        }
    }

    #[cfg(test)]
    pub(crate) fn catalog(&self) -> &RwLock<Catalog> {
        &self.catalog
    }

    #[cfg(test)]
    pub(crate) fn pool(&self) -> &SamplerPool {
        &self.pool
    }

    #[cfg(test)]
    pub(crate) fn cache_len(&self) -> usize {
        self.cache.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemoryBackend;

    fn shard() -> Arc<ShardEngine> {
        ShardEngine::with_backend(
            EngineConfig {
                workers: 2,
                cache_capacity: 64,
                ..EngineConfig::default()
            },
            Arc::new(MemoryBackend),
            3,
        )
        .unwrap()
    }

    #[test]
    fn stale_answer_insert_after_update_is_dropped() {
        // The in-flight race, deterministically interleaved: a slow
        // answer snapshots version v1, an update purges and floors the
        // cache while it samples, then its insert lands through the same
        // `store_answer` path the real request path uses. The dead entry
        // must be dropped, not parked in an LRU slot.
        let e = shard();
        e.create(
            "prefs",
            "Pref(a,b). Pref(a,c). Pref(a,d). Pref(b,a). Pref(b,d). Pref(c,a).",
            "Pref(x,y), Pref(y,x) -> false.",
        )
        .unwrap();
        let (_ctx, v1, plan) = e.catalog().read().snapshot("prefs").unwrap();
        // The "slow sampler" finishes its work against the v1 snapshot…
        let gen = generator_by_name("uniform").unwrap();
        let task = plan.task(PlanKind::Localized, gen).unwrap();
        let query =
            Arc::new(ocqa_logic::parser::parse_query("(x) <- exists y: Pref(x,y)").unwrap());
        let tally = Arc::new(e.pool().run(&task, &query, 64, 3).unwrap());
        // …but an update lands first, bumping the version and flooring
        // the cache.
        e.update("prefs", "", "Pref(c,a).").unwrap();
        // The late insert must be dropped.
        let key = CacheKey {
            db: "prefs".into(),
            version: v1,
            query: "(x) <- exists y: Pref(x,y)".into(),
            generator: "uniform".into(),
            plan: PlanKind::Localized,
            eps_bits: 0.1f64.to_bits(),
            delta_bits: 0.1f64.to_bits(),
            seed: 3,
        };
        let stats = e.store_answer(key, tally);
        assert_eq!(stats.stale_drops, 1);
        assert_eq!(e.cache_len(), 0, "no dead entry may occupy a slot");
        // Answers against the current version cache normally again.
        let a = e
            .answer(
                "prefs",
                &QueryRef::Text("(x) <- exists y: Pref(x,y)".into()),
                "uniform",
                0.1,
                0.1,
                3,
                None,
            )
            .unwrap();
        assert!(!a.cached);
        assert_eq!(e.cache_len(), 1);
    }

    #[test]
    fn full_shard_rejects_samplers_but_serves_coalescers() {
        use crate::singleflight::Join;

        // max_inflight 1, and the only slot is held (a leader is
        // sampling some other key).
        let e = ShardEngine::with_backend(
            EngineConfig {
                workers: 2,
                cache_capacity: 64,
                max_inflight: 1,
                ..EngineConfig::default()
            },
            Arc::new(MemoryBackend),
            2,
        )
        .unwrap();
        e.create(
            "kv",
            "R(1,10). R(1,20). R(2,30).",
            "R(x,y), R(x,z) -> y = z.",
        )
        .unwrap();
        let occupied = Slot::reserve(&e.inflight, e.max_inflight).expect("slot free");

        // A request that would need to sample is rejected — and, the new
        // contract, without ever creating a flight for others to join.
        let err = e
            .answer(
                "kv",
                &QueryRef::Text("(y) <- exists x: R(x,y)".into()),
                "uniform",
                0.1,
                0.1,
                1,
                None,
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::ShardFull(2)), "{err}");
        assert!(e.flights.is_empty(), "rejection must not create a flight");

        // A request that can coalesce onto an admitted in-flight run is
        // served even though the shard is full: stand up a live flight
        // for the exact key the request computes, let the request join
        // it, and publish the leader's tally.
        let (_ctx, version, plan) = e.catalog().read().snapshot("kv").unwrap();
        let gen = generator_by_name("uniform").unwrap();
        let route = plan.route(gen.as_ref(), None).unwrap();
        let query_text = "(x) <- exists y: R(x,y)";
        let key = CacheKey {
            db: "kv".into(),
            version,
            query: query_text.into(),
            generator: "uniform".into(),
            plan: route,
            eps_bits: 0.1f64.to_bits(),
            delta_bits: 0.1f64.to_bits(),
            seed: 7,
        };
        let Join::Leader(token) = e.flights.join(&key) else {
            panic!("fresh key must lead");
        };
        let follower = {
            let e = e.clone();
            std::thread::spawn(move || {
                e.answer(
                    "kv",
                    &QueryRef::Text(query_text.into()),
                    "uniform",
                    0.1,
                    0.1,
                    7,
                    None,
                )
            })
        };
        // Give the follower time to block on the flight, then publish —
        // cache first, flight second, mirroring the leader path, so a
        // late-arriving follower hits the cache instead of resampling.
        std::thread::sleep(Duration::from_millis(100));
        let task = plan.task(route, gen).unwrap();
        let query = Arc::new(ocqa_logic::parser::parse_query(query_text).unwrap());
        let tally = Arc::new(e.pool().run(&task, &query, 150, 7).unwrap());
        e.store_answer(key, tally.clone());
        token.complete(Ok(tally));
        let payload = follower
            .join()
            .unwrap()
            .expect("a coalescing request must be served by a full shard");
        assert!(
            payload.coalesced || payload.cached,
            "must share the flight or its cached result"
        );
        assert_eq!(payload.walks, 150);
        let s = e.stats();
        assert_eq!(s.walks, 0, "the shard itself never sampled");
        drop(occupied);
    }

    #[test]
    fn follower_rejoins_after_a_shard_full_flight() {
        use crate::singleflight::Join;

        // The regression scenario: a flight resolves to ShardFull (what
        // a pre-admission-reordering leader published when it was
        // rejected). A follower must re-join and serve the request
        // itself — one overload rejection may not fan out to N client
        // errors.
        let e = shard();
        e.create("kv", "R(1,10). R(1,20).", "R(x,y), R(x,z) -> y = z.")
            .unwrap();
        let (_ctx, version, plan) = e.catalog().read().snapshot("kv").unwrap();
        let gen = generator_by_name("uniform").unwrap();
        let route = plan.route(gen.as_ref(), None).unwrap();
        let query_text = "(x) <- exists y: R(x,y)";
        let key = CacheKey {
            db: "kv".into(),
            version,
            query: query_text.into(),
            generator: "uniform".into(),
            plan: route,
            eps_bits: 0.1f64.to_bits(),
            delta_bits: 0.1f64.to_bits(),
            seed: 3,
        };
        let Join::Leader(token) = e.flights.join(&key) else {
            panic!("fresh key must lead");
        };
        let follower = {
            let e = e.clone();
            std::thread::spawn(move || {
                e.answer(
                    "kv",
                    &QueryRef::Text(query_text.into()),
                    "uniform",
                    0.1,
                    0.1,
                    3,
                    None,
                )
            })
        };
        std::thread::sleep(Duration::from_millis(100));
        token.complete(Err(EngineError::ShardFull(3)));
        let payload = follower
            .join()
            .unwrap()
            .expect("follower of a rejected leader must re-join, not fail");
        assert!(!payload.cached && !payload.coalesced, "it sampled itself");
        let s = e.stats();
        assert_eq!(s.walks, 150, "the re-joined request ran its own walks");
        assert!(e.flights.is_empty());
    }

    #[test]
    fn pushes_reestimates_only_for_touching_updates() {
        let e = shard();
        e.create("kv", "R(1,10). R(1,20). S(5).", "R(x,y), R(x,z) -> y = z.")
            .unwrap();
        let session = PushSession::new();
        let q = QueryRef::Text("(x) <- exists y: R(x,y)".into());
        let id = e
            .subscribe(&session, "kv", &q, "uniform", 0.1, 0.1, 7, None)
            .unwrap();
        assert_eq!(e.stats().subscriptions, 1);
        // Clean-region append: no push, and — pinned via the walk
        // counter — no resampling either.
        let walks0 = e.stats().walks;
        e.update("kv", "S(6).", "").unwrap();
        assert_eq!(e.stats().walks, walks0, "clean update must not resample");
        // Touching update: one estimate frame at the new version.
        let out = e.update("kv", "R(1,30).", "").unwrap();
        let frame = session.pop_wait().unwrap();
        assert!(frame.contains(r#""event":"estimate""#), "{frame}");
        assert!(
            frame.contains(&format!(r#""db_version":{}"#, out.version)),
            "{frame}"
        );
        assert!(frame.contains(&format!(r#""sub":{id}"#)), "{frame}");
        // The push populated the cache at the new version: a subscriber
        // reacting to the frame with an immediate equal `answer` hits
        // the cache — never a stale tally.
        let a = e.answer("kv", &q, "uniform", 0.1, 0.1, 7, None).unwrap();
        assert!(a.cached);
        assert_eq!(a.db_version, out.version);
        // After unsubscribe, touching updates push nothing.
        e.unsubscribe(&session, "kv", id).unwrap();
        e.update("kv", "R(1,40).", "").unwrap();
        session.close();
        assert_eq!(session.pop_wait(), None, "no frame after unsubscribe");
        assert_eq!(e.stats().subscriptions, 0);
    }

    #[test]
    fn per_session_subscription_limit_is_enforced() {
        let e = ShardEngine::with_backend(
            EngineConfig {
                workers: 1,
                cache_capacity: 8,
                max_subs_per_conn: 2,
                ..EngineConfig::default()
            },
            Arc::new(MemoryBackend),
            0,
        )
        .unwrap();
        e.create("kv", "R(1,10). R(1,20).", "R(x,y), R(x,z) -> y = z.")
            .unwrap();
        let session = PushSession::new();
        let q = QueryRef::Text("(x) <- exists y: R(x,y)".into());
        e.subscribe(&session, "kv", &q, "uniform", 0.1, 0.1, 0, None)
            .unwrap();
        e.subscribe(&session, "kv", &q, "uniform", 0.1, 0.1, 1, None)
            .unwrap();
        let err = e
            .subscribe(&session, "kv", &q, "uniform", 0.1, 0.1, 2, None)
            .unwrap_err();
        assert!(matches!(err, EngineError::BadRequest(_)), "{err}");
        assert!(err.to_string().contains("subscription limit"), "{err}");
        // The rejection must not have leaked a slot.
        assert_eq!(session.sub_count(), 2);
        // Dropping the database pushes closed frames and frees slots.
        e.drop_db("kv").unwrap();
        assert_eq!(session.sub_count(), 0);
        assert_eq!(e.stats().subscriptions, 0);
        let frame = session.pop_wait().unwrap();
        assert!(
            frame.contains(r#""event":"closed""#) && frame.contains(r#""reason":"dropped""#),
            "{frame}"
        );
    }

    #[test]
    fn session_close_reaps_subscriptions() {
        let e = shard();
        e.create("kv", "R(1,10). R(1,20).", "R(x,y), R(x,z) -> y = z.")
            .unwrap();
        let session = PushSession::new();
        e.subscribe(
            &session,
            "kv",
            &QueryRef::Text("(x) <- exists y: R(x,y)".into()),
            "uniform",
            0.1,
            0.1,
            0,
            None,
        )
        .unwrap();
        assert_eq!(e.stats().subscriptions, 1);
        session.close();
        assert_eq!(e.stats().subscriptions, 0, "disconnect must reap");
    }

    #[test]
    fn shard_full_rejection_keeps_counters_clean() {
        // max_inflight 0: every sampling leader is rejected at admission.
        let e = ShardEngine::with_backend(
            EngineConfig {
                workers: 1,
                cache_capacity: 8,
                max_inflight: 0,
                ..EngineConfig::default()
            },
            Arc::new(MemoryBackend),
            5,
        )
        .unwrap();
        e.create("kv", "R(1,10). R(1,20).", "R(x,y), R(x,z) -> y = z.")
            .unwrap();
        let err = e
            .answer(
                "kv",
                &QueryRef::Text("(x) <- exists y: R(x,y)".into()),
                "uniform",
                0.1,
                0.1,
                0,
                None,
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::ShardFull(5)), "{err}");
        let s = e.stats();
        assert_eq!(
            (s.answers, s.walks, s.coalesced),
            (0, 0, 0),
            "admission rejection must not move success counters"
        );
        assert!(e.flights.is_empty(), "rejected flight must retire");
    }
}
