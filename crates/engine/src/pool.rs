//! The sampler pool: a fixed set of long-lived worker threads executing
//! each request's sample budget as fixed-size chunks, oldest request
//! first.
//!
//! **Determinism.** Results must be bit-identical for a fixed seed no
//! matter how many workers the pool has or which worker runs which
//! chunk. Two choices make that hold:
//!
//! 1. the budget is split into *fixed-size chunks* (`CHUNK_WALKS`),
//!    independent of the worker count, and chunk `i` always samples with
//!    the RNG `derive_seed(seed, i)` — so the multiset of walks performed
//!    is a function of `(seed, budget)` alone;
//! 2. chunk results are [`SampleTally`]s — pure sums — whose merge is
//!    commutative and associative, so the scheduling order in which
//!    workers finish cannot influence the final tally.
//!
//! **Scheduling.** A request submits one [`Batch`] descriptor, not one
//! message per chunk: workers claim chunk indices from the batch's
//! atomic cursor, so a 400-chunk monolithic run costs a handful of queue
//! operations instead of 400 channel sends and `Arc` clones. In-flight
//! batches sit in one FIFO queue under the pool's mutex; every idle
//! worker joins the *front* batch and stays on it until its cursor is
//! exhausted, and exhausted fronts are popped. Single-chunk budgets
//! bypass the pool entirely and sample on the calling thread.
//!
//! Why oldest-first on long-lived threads, rather than sharing the
//! workers between overlapping requests or spawning scoped threads per
//! request: for a closed loop, sharing was measured worse — `cold_walk`
//! at 2 connections on 2 cores read `op_p50_ms` 164–188 vs 128–140 and
//! `rps` 10.5–12.2 vs 13.6–15.3 with per-request scoped threads, every
//! seed pair worse — because both requests then finish late instead of
//! one early and one on time; and per-thread CPU accounting
//! (`/proc/<pid>/task/*/schedstat`) only sees threads that are still
//! alive when it is read.

use crate::error::EngineError;
use crate::planner::SampleTask;
use ocqa_core::sample::SampleTally;
use ocqa_core::{ChainGenerator, RepairContext};
use ocqa_logic::Query;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Per-chunk seed derivation; part of the reproducibility contract along
/// with [`CHUNK_WALKS`].
pub use ocqa_core::sample::derive_seed;

/// Walks per dispatched chunk. Fixed: changing this changes sampled
/// streams, so it is part of the engine's reproducibility contract.
pub const CHUNK_WALKS: u64 = 64;

/// One submitted sampling request. Participating workers claim chunk
/// indices through `cursor`; each claimed chunk sends exactly one result
/// on `reply`, which is pre-sized to `chunks` so sends never block.
struct Batch {
    task: SampleTask,
    query: Arc<Query>,
    walks: u64,
    chunks: u64,
    seed: u64,
    cursor: AtomicU64,
    reply: SyncSender<Result<SampleTally, String>>,
}

impl Batch {
    /// Claims and runs chunks until the cursor is exhausted.
    fn work(&self) {
        loop {
            let chunk = self.cursor.fetch_add(1, Ordering::Relaxed);
            if chunk >= self.chunks {
                return;
            }
            let quota = CHUNK_WALKS.min(self.walks - chunk * CHUNK_WALKS);
            let result = run_chunk_guarded(&self.task, &self.query, quota, self.seed, chunk);
            // The requester may have bailed (fail-fast on an earlier
            // chunk error): nothing to do.
            let _ = self.reply.send(result);
        }
    }

    /// Whether unclaimed chunks remain (racy, advisory only).
    fn has_spare_chunks(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) < self.chunks
    }
}

struct PoolState {
    shutdown: bool,
    /// In-flight batches, oldest first. The engine's `ShardFull`
    /// admission bound caps its length at `max_inflight`.
    queue: VecDeque<Arc<Batch>>,
}

struct PoolShared {
    state: Mutex<PoolState>,
    wake: Condvar,
}

/// A fixed worker-thread pool executing sample-walk chunks, oldest
/// request first.
pub struct SamplerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl SamplerPool {
    /// Spawns `workers` threads; `0` auto-sizes from the detected core
    /// count (the same default `EngineConfig` applies when `--workers`
    /// is unset).
    pub fn new(workers: usize) -> SamplerPool {
        let workers = if workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            workers
        };
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                shutdown: false,
                queue: VecDeque::new(),
            }),
            wake: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("ocqa-sampler-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn sampler worker")
            })
            .collect();
        SamplerPool {
            shared,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Runs `walks` sample walks of `query` split across the pool,
    /// merging the per-chunk tallies. Deterministic in `(seed, walks)`
    /// and the task's plan: every [`SampleTask`] chunk is a pure function
    /// of `(derive_seed(seed, chunk), quota)`.
    pub fn run(
        &self,
        task: &SampleTask,
        query: &Arc<Query>,
        walks: u64,
        seed: u64,
    ) -> Result<SampleTally, EngineError> {
        let chunks = walks.div_ceil(CHUNK_WALKS);
        if chunks <= 1 {
            // Single-chunk budgets skip the queue and reply channel
            // entirely: chunk 0 still seeds from derive_seed(seed, 0), so
            // the tally is bit-identical to the pooled path.
            return run_chunk_guarded(task, query, walks, seed, 0).map_err(EngineError::Sampling);
        }
        self.run_batched(task, query, walks, seed, chunks)
    }

    /// The pooled path: submits one batch descriptor and drains exactly
    /// `chunks` replies. Kept separate from [`run`](Self::run) so tests
    /// can pin the single-chunk bypass against it.
    fn run_batched(
        &self,
        task: &SampleTask,
        query: &Arc<Query>,
        walks: u64,
        seed: u64,
        chunks: u64,
    ) -> Result<SampleTally, EngineError> {
        // Pre-sized to the chunk count: every chunk sends exactly once,
        // so sends never block and the request never allocates an
        // unbounded queue.
        let (reply_tx, reply_rx) = std::sync::mpsc::sync_channel(chunks as usize);
        let batch = Arc::new(Batch {
            task: task.clone(),
            query: query.clone(),
            walks,
            chunks,
            seed,
            cursor: AtomicU64::new(0),
            reply: reply_tx,
        });
        lock(&self.shared.state).queue.push_back(batch);
        self.shared.wake.notify_all();
        let mut tally = SampleTally::default();
        for _ in 0..chunks {
            match reply_rx.recv() {
                Ok(Ok(chunk_tally)) => tally.merge(chunk_tally),
                // Fail fast: dropping the receiver makes the remaining
                // chunks' sends no-ops.
                Ok(Err(e)) => return Err(EngineError::Sampling(e)),
                Err(_) => break, // every batch handle died before replying
            }
        }
        if tally.walks != walks {
            // A worker died mid-chunk (panic): report rather than return a
            // silently short estimate.
            return Err(EngineError::Sampling(format!(
                "pool returned {} of {} requested walks",
                tally.walks, walks
            )));
        }
        Ok(tally)
    }

    /// [`run`](Self::run) with a monolithic chain-walk task — the pre-
    /// planner entry point, kept for callers that sample one context
    /// directly.
    pub fn run_monolithic(
        &self,
        ctx: &Arc<RepairContext>,
        gen: &Arc<dyn ChainGenerator>,
        query: &Arc<Query>,
        walks: u64,
        seed: u64,
    ) -> Result<SampleTally, EngineError> {
        self.run(&SampleTask::monolithic(ctx, gen), query, walks, seed)
    }
}

impl Drop for SamplerPool {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.wake.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn lock(state: &Mutex<PoolState>) -> std::sync::MutexGuard<'_, PoolState> {
    state
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn worker_loop(shared: &PoolShared) {
    while let Some(batch) = next_batch(shared) {
        batch.work();
    }
}

/// Blocks until the front of the queue has unclaimed chunks, popping
/// exhausted fronts on the way, or the pool shuts down with the queue
/// drained.
fn next_batch(shared: &PoolShared) -> Option<Arc<Batch>> {
    let mut state = lock(&shared.state);
    loop {
        match state.queue.front() {
            Some(front) if front.has_spare_chunks() => return Some(front.clone()),
            Some(_) => {
                state.queue.pop_front();
            }
            None if state.shutdown => return None,
            None => {
                state = shared
                    .wake
                    .wait(state)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        }
    }
}

/// Runs one chunk with panic isolation: a panicking chunk (e.g. a
/// pathological constraint set tripping an assert deep in the repair
/// machinery) must fail *that request*, not kill a worker — a dead
/// worker would eventually brick the pool for every later request.
/// `AssertUnwindSafe` is sound here: the closure only touches the
/// task's `Arc`s (immutable) and chunk-local RNG state.
fn run_chunk_guarded(
    task: &SampleTask,
    query: &Query,
    quota: u64,
    seed: u64,
    chunk: u64,
) -> Result<SampleTally, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        task.run_chunk(query, quota, derive_seed(seed, chunk))
    }))
    .unwrap_or_else(|payload| Err(panic_text(payload.as_ref())))
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload");
    format!("sampling panicked: {msg}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::DbPlan;
    use ocqa_core::UniformGenerator;
    use ocqa_data::Database;
    use ocqa_logic::parser;

    fn setup() -> (Arc<RepairContext>, Arc<dyn ChainGenerator>, Arc<Query>) {
        setup_with("R(a,b). R(a,c). R(b,b). R(b,c).")
    }

    fn setup_with(facts: &str) -> (Arc<RepairContext>, Arc<dyn ChainGenerator>, Arc<Query>) {
        let facts = parser::parse_facts(facts).unwrap();
        let sigma = parser::parse_constraints("R(x,y), R(x,z) -> y = z.").unwrap();
        let schema = parser::infer_schema(&facts, &sigma).unwrap();
        let db = Database::from_facts(schema, facts).unwrap();
        let ctx = RepairContext::new(db, sigma);
        let gen: Arc<dyn ChainGenerator> = Arc::new(UniformGenerator::new());
        let query = Arc::new(parser::parse_query("(y) <- exists x: R(x, y)").unwrap());
        (ctx, gen, query)
    }

    #[test]
    fn identical_tallies_across_pool_sizes() {
        // Every plan's task must be bit-identical regardless of how many
        // workers split its chunks — the planner must not weaken the
        // engine's reproducibility contract.
        let (ctx, gen, query) = setup();
        let plan = DbPlan::build(&ctx);
        for route in [
            crate::planner::PlanKind::Monolithic,
            crate::planner::PlanKind::Localized,
            crate::planner::PlanKind::KeyRepair,
        ] {
            let task = plan.task(route, gen.clone()).unwrap();
            let reference = SamplerPool::new(1).run(&task, &query, 300, 42).unwrap();
            for workers in [2, 3, 8] {
                let pool = SamplerPool::new(workers);
                let tally = pool.run(&task, &query, 300, 42).unwrap();
                assert_eq!(tally.counts, reference.counts, "{route}, {workers} workers");
                assert_eq!(tally.walks, 300);
            }
        }
    }

    #[test]
    fn single_chunk_bypass_matches_pooled_path() {
        // Budgets that fit in one chunk run on the calling thread; the
        // tally must be bit-identical to what the queues would produce.
        let (ctx, gen, query) = setup();
        let plan = DbPlan::build(&ctx);
        let pool = SamplerPool::new(3);
        for route in [
            crate::planner::PlanKind::Monolithic,
            crate::planner::PlanKind::Localized,
            crate::planner::PlanKind::KeyRepair,
        ] {
            let task = plan.task(route, gen.clone()).unwrap();
            for walks in [1, CHUNK_WALKS - 1, CHUNK_WALKS] {
                let bypass = pool.run(&task, &query, walks, 9).unwrap();
                let pooled = pool.run_batched(&task, &query, walks, 9, 1).unwrap();
                assert_eq!(bypass.counts, pooled.counts, "{route}, {walks} walks");
                assert_eq!(bypass.walks, pooled.walks);
                assert_eq!(bypass.failed_walks, pooled.failed_walks);
            }
        }
    }

    #[test]
    fn concurrent_batches_run_without_cross_talk() {
        // Several requests in flight at once: whichever workers run
        // whichever chunks, each request's tally must equal its
        // single-threaded reference.
        let (ctx, gen, query) = setup();
        let pool = Arc::new(SamplerPool::new(4));
        let reference: Vec<SampleTally> = (0..6)
            .map(|seed| {
                SamplerPool::new(1)
                    .run_monolithic(&ctx, &gen, &query, 260, seed)
                    .unwrap()
            })
            .collect();
        let handles: Vec<_> = (0..6u64)
            .map(|seed| {
                let (pool, ctx, gen, query) =
                    (pool.clone(), ctx.clone(), gen.clone(), query.clone());
                std::thread::spawn(move || pool.run_monolithic(&ctx, &gen, &query, 260, seed))
            })
            .collect();
        for (seed, h) in handles.into_iter().enumerate() {
            let tally = h.join().unwrap().unwrap();
            assert_eq!(tally.counts, reference[seed].counts, "seed {seed}");
            assert_eq!(tally.walks, 260);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let (ctx, gen, query) = setup();
        let pool = SamplerPool::new(2);
        let a = pool.run_monolithic(&ctx, &gen, &query, 300, 1).unwrap();
        let b = pool.run_monolithic(&ctx, &gen, &query, 300, 2).unwrap();
        assert_ne!(a.counts, b.counts, "seed must matter");
    }

    #[test]
    fn partial_final_chunk_counts_exactly() {
        let (ctx, gen, query) = setup();
        let pool = SamplerPool::new(4);
        let tally = pool
            .run_monolithic(&ctx, &gen, &query, CHUNK_WALKS + 7, 5)
            .unwrap();
        assert_eq!(tally.walks, CHUNK_WALKS + 7);
        assert_eq!(tally.failed_walks, 0, "key repairs never fail (Prop. 8)");
    }

    #[test]
    fn overlapping_batches_are_served_oldest_first() {
        // One conflict that any single operation resolves, so a walk is
        // exactly one generator call and a worker's k-th call on a batch
        // opens a chunk iff k is a multiple of CHUNK_WALKS.
        let (ctx, _, query) = setup_with("R(a,b). R(a,c).");
        let walks = 4 * CHUNK_WALKS;
        for workers in [1usize, 2] {
            let pool = SamplerPool::new(workers);
            let log = Arc::new(Mutex::new(Vec::new()));
            let gate = Arc::new((Mutex::new(false), Condvar::new()));
            let recorder = |label: &'static str, gated: bool| {
                let (log, gate) = (log.clone(), gate.clone());
                let gen = ocqa_core::WeightFnGenerator::new(label, move |_, ops| {
                    log.lock()
                        .unwrap()
                        .push((label, std::thread::current().id()));
                    let mut open = gate.0.lock().unwrap();
                    while gated && !*open {
                        open = gate.1.wait(open).unwrap();
                    }
                    let mut w = vec![ocqa_num::Rat::zero(); ops.len()];
                    w[0] = ocqa_num::Rat::one();
                    w
                });
                Arc::new(gen) as Arc<dyn ChainGenerator>
            };
            // A's walks block until B is queued behind it.
            let (gen_a, gen_b) = (recorder("A", true), recorder("B", false));
            std::thread::scope(|scope| {
                let a = scope.spawn(|| pool.run_monolithic(&ctx, &gen_a, &query, walks, 1));
                while log.lock().unwrap().is_empty() {
                    std::thread::yield_now();
                }
                let b = scope.spawn(|| pool.run_monolithic(&ctx, &gen_b, &query, walks, 2));
                while lock(&pool.shared.state).queue.len() < 2 {
                    std::thread::yield_now();
                }
                *gate.0.lock().unwrap() = true;
                gate.1.notify_all();
                assert_eq!(a.join().unwrap().unwrap().walks, walks);
                assert_eq!(b.join().unwrap().unwrap().walks, walks);
            });
            let log = log.lock().unwrap();
            let mut calls = std::collections::HashMap::new();
            let mut on_b = std::collections::HashSet::new();
            let mut late_a_starts = 0;
            for &(label, thread) in log.iter() {
                let k = calls.entry((label, thread)).or_insert(0u64);
                let opens_chunk = *k % CHUNK_WALKS == 0;
                *k += 1;
                if label == "B" {
                    on_b.insert(thread);
                } else {
                    assert!(
                        !on_b.contains(&thread),
                        "{workers} workers: a worker went back from B to A"
                    );
                    late_a_starts += u64::from(opens_chunk && !on_b.is_empty());
                }
            }
            assert_eq!(calls.values().sum::<u64>(), 2 * walks, "one call per walk");
            // Every A chunk is claimed before any worker moves on to B;
            // each *other* worker may still be between claiming its last
            // A chunk and that chunk's first generator call.
            assert!(
                late_a_starts < workers as u64,
                "{workers} workers: {late_a_starts} A chunks started after B had started"
            );
        }
    }

    #[test]
    fn panicking_chunk_fails_request_but_pool_survives() {
        let (ctx, gen, query) = setup();
        let pool = SamplerPool::new(2);
        let bomb: Arc<dyn ChainGenerator> =
            Arc::new(ocqa_core::WeightFnGenerator::new("bomb", |_, _| {
                panic!("boom in generator")
            }));
        // Weights that do not sum to one: every chunk returns `Err`, and
        // the requester bails on the first while the rest still run.
        let skewed: Arc<dyn ChainGenerator> =
            Arc::new(ocqa_core::WeightFnGenerator::new("skewed", |_, ops| {
                vec![ocqa_num::Rat::one(); ops.len()]
            }));
        for round in 0..3 {
            let err = pool
                .run_monolithic(&ctx, &bomb, &query, 200, round)
                .unwrap_err();
            assert!(
                err.to_string().contains("panicked"),
                "panic surfaced as request error: {err}"
            );
            let err = pool
                .run_monolithic(&ctx, &skewed, &query, 10 * CHUNK_WALKS, round)
                .unwrap_err();
            assert!(matches!(err, EngineError::Sampling(_)), "{err}");
            // Workers survived; normal requests keep working.
            let tally = pool.run_monolithic(&ctx, &gen, &query, 100, round).unwrap();
            assert_eq!(tally.walks, 100);
        }
        assert_eq!(pool.workers(), 2);
        // A served request was at the front, so everything before it has
        // been popped; it goes itself once a worker looks again.
        assert!(lock(&pool.shared.state).queue.len() <= 1);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !lock(&pool.shared.state).queue.is_empty() {
            assert!(
                std::time::Instant::now() < deadline,
                "exhausted batch never left the queue"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn panicking_single_chunk_fails_without_poisoning_the_caller() {
        // The bypass path runs on the calling thread: its panics must be
        // contained the same way the pooled path contains worker panics.
        let (ctx, _, query) = setup();
        let pool = SamplerPool::new(2);
        let bomb: Arc<dyn ChainGenerator> =
            Arc::new(ocqa_core::WeightFnGenerator::new("bomb", |_, _| {
                panic!("boom in generator")
            }));
        let err = pool.run_monolithic(&ctx, &bomb, &query, 10, 1).unwrap_err();
        assert!(err.to_string().contains("panicked"), "{err}");
    }

    #[test]
    fn derive_seed_decorrelates() {
        let a = derive_seed(7, 0);
        let b = derive_seed(7, 1);
        let c = derive_seed(8, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(derive_seed(7, 1), b, "stable");
    }
}
