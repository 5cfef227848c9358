//! `ocqa-obs`: engine-wide observability — metrics registry, latency
//! histograms, slow-request traces and Prometheus exposition.
//!
//! The serving stack (front door → router → shard, PRs 3–5) emitted
//! only a flat counter blob through `stats`. This module family adds the
//! latency feed operators ask for first. It is observation only: no
//! recorded value ever feeds back into plan choice or an answer.
//!
//! * [`hist`] — lock-free log2-bucket latency [`Histogram`]s whose
//!   snapshots merge bucket-wise (associatively, so aggregation order
//!   never changes the merged document);
//! * [`ShardMetrics`] — the per-shard registry: one histogram per
//!   protocol operation, per answer plan, and per hot-path stage
//!   (cache lookup, single-flight wait, sampling walk, WAL append);
//! * [`trace`] — `--slow-ms` structured NDJSON trace events on stderr,
//!   one per slow request, with the stage breakdown and chosen plan;
//! * [`expo`] — the `--metrics-addr` plain-text Prometheus exposition
//!   listener (no dependencies, hand-rolled HTTP).
//!
//! # Where metrics are recorded
//!
//! Only **shards** record latency metrics; front doors (in-process or
//! the `ocqa route` proxy) record none of their own. That asymmetry is
//! deliberate: it makes the `metrics` fan-out of `ocqa serve --shards N`
//! and of `ocqa route` over N single-shard upstreams the *same*
//! aggregation of the same per-shard snapshots, rendered by the same
//! code — so the two deployments answer `metrics` byte-identically
//! (the router's extra `upstreams` health array aside), extending the
//! determinism contract to observability.

pub mod expo;
pub mod hist;
pub mod trace;

pub use hist::{bucket_bound, bucket_of, HistSnapshot, Histogram, BUCKETS};
pub use trace::SlowLog;

use crate::json::Json;
use crate::planner::PlanKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Protocol operations a shard serves (front-door-only ops like `ping`,
/// `list` and `stats` are not timed — they never touch shard state that
/// an operator would tune).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `answer` — the sampling hot path.
    Answer,
    /// `create_db` — parse, violation index, journaled install.
    Install,
    /// `insert`/`delete` — incremental violation update + WAL.
    Update,
    /// `drop_db`.
    Drop,
    /// `prepare` (explicit or first-seen inline text).
    Prepare,
    /// `prepared_get` — the handle-authority lookup.
    PreparedGet,
}

impl Op {
    /// Every operation, in fixed registry order.
    pub const ALL: [Op; 6] = [
        Op::Answer,
        Op::Install,
        Op::Update,
        Op::Drop,
        Op::Prepare,
        Op::PreparedGet,
    ];

    /// The protocol-facing label.
    pub fn as_str(self) -> &'static str {
        match self {
            Op::Answer => "answer",
            Op::Install => "install",
            Op::Update => "update",
            Op::Drop => "drop",
            Op::Prepare => "prepare",
            Op::PreparedGet => "prepared_get",
        }
    }
}

/// Hot-path stages of an `answer` (plus the WAL append every journaled
/// mutation pays). Stage timings do not sum to the op timing — they are
/// the interesting *parts* of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Answer-cache lock + lookup.
    CacheLookup,
    /// Blocking on another request's in-flight sampling run.
    FlightWait,
    /// The sampling walk itself (pool run, leader only).
    Sample,
    /// Storage-backend journaling (WAL append + fsync on disk stores).
    WalAppend,
}

impl Stage {
    /// Every stage, in fixed registry order.
    pub const ALL: [Stage; 4] = [
        Stage::CacheLookup,
        Stage::FlightWait,
        Stage::Sample,
        Stage::WalAppend,
    ];

    /// The protocol-facing label.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::CacheLookup => "cache_lookup",
            Stage::FlightWait => "flight_wait",
            Stage::Sample => "sample",
            Stage::WalAppend => "wal_append",
        }
    }
}

/// Answer plans, in fixed registry order (mirrors [`PlanKind`]).
pub const PLANS: [PlanKind; 3] = [
    PlanKind::KeyRepair,
    PlanKind::Localized,
    PlanKind::Monolithic,
];

fn plan_index(plan: PlanKind) -> usize {
    match plan {
        PlanKind::KeyRepair => 0,
        PlanKind::Localized => 1,
        PlanKind::Monolithic => 2,
    }
}

/// The per-shard metrics registry: fixed histogram arrays, recorded
/// lock-free on the serving paths.
#[derive(Debug, Default)]
pub struct ShardMetrics {
    ops: [Histogram; Op::ALL.len()],
    plans: [Histogram; PLANS.len()],
    stages: [Histogram; Stage::ALL.len()],
    /// Streaming push path: update commit → estimate frame enqueued
    /// (includes the re-estimate's sampling or cache hit).
    push: Histogram,
    /// Estimate frames shed from slow consumers' bounded session queues.
    shed: AtomicU64,
}

impl ShardMetrics {
    /// An empty registry.
    pub fn new() -> ShardMetrics {
        ShardMetrics::default()
    }

    /// Records one operation's total latency.
    pub fn record_op(&self, op: Op, elapsed: Duration) {
        self.ops[op as usize].record(elapsed);
    }

    /// Records an `answer`'s latency under its serving plan.
    pub fn record_plan(&self, plan: PlanKind, elapsed: Duration) {
        self.plans[plan_index(plan)].record(elapsed);
    }

    /// Records one hot-path stage timing.
    pub fn record_stage(&self, stage: Stage, elapsed: Duration) {
        self.stages[stage as usize].record(elapsed);
    }

    /// Records one subscriber push's latency (update commit → frame
    /// enqueued).
    pub fn record_push(&self, elapsed: Duration) {
        self.push.record(elapsed);
    }

    /// Counts one estimate frame shed from a slow consumer's queue.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time snapshot of every histogram. The `subscriptions`
    /// gauge is zero here — the shard stamps its live registry size in
    /// after snapshotting (the registry belongs to the shard, not the
    /// metrics recorder).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            ops: std::array::from_fn(|i| self.ops[i].snapshot()),
            plans: std::array::from_fn(|i| self.plans[i].snapshot()),
            stages: std::array::from_fn(|i| self.stages[i].snapshot()),
            push: self.push.snapshot(),
            shed: self.shed.load(Ordering::Relaxed),
            subscriptions: 0,
            wal_batch: HistSnapshot::default(),
            wal_fsync_us: HistSnapshot::default(),
        }
    }
}

/// One shard's metrics at a point in time — the unit the `metrics`
/// protocol op reports per shard and the route proxy merges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Per-operation latency, indexed like [`Op::ALL`].
    pub ops: [HistSnapshot; Op::ALL.len()],
    /// Per-plan `answer` latency, indexed like [`PLANS`].
    pub plans: [HistSnapshot; PLANS.len()],
    /// Per-stage hot-path latency, indexed like [`Stage::ALL`].
    pub stages: [HistSnapshot; Stage::ALL.len()],
    /// Streaming push latency (update commit → estimate frame enqueued).
    pub push: HistSnapshot,
    /// Estimate frames shed from slow consumers' session queues.
    pub shed: u64,
    /// Live subscriptions on the shard at snapshot time. Merging sums,
    /// so a router's `total` counts each shard's gauge exactly once.
    pub subscriptions: u64,
    /// WAL group commit: records covered per batch fsync (raw counts,
    /// not µs). Stamped by the shard from its storage backend; empty on
    /// memory backends and with group commit off.
    pub wal_batch: HistSnapshot,
    /// WAL group commit: batch `sync_data` latency, µs.
    pub wal_fsync_us: HistSnapshot,
}

impl MetricsSnapshot {
    /// Bucket-wise merge of every histogram (associative, commutative).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (a, b) in self.ops.iter_mut().zip(&other.ops) {
            a.merge(b);
        }
        for (a, b) in self.plans.iter_mut().zip(&other.plans) {
            a.merge(b);
        }
        for (a, b) in self.stages.iter_mut().zip(&other.stages) {
            a.merge(b);
        }
        self.push.merge(&other.push);
        self.shed += other.shed;
        self.subscriptions += other.subscriptions;
        self.wal_batch.merge(&other.wal_batch);
        self.wal_fsync_us.merge(&other.wal_fsync_us);
    }

    /// Renders the snapshot's three histogram families. Every op, plan
    /// and stage key is always present (empty histograms included), so
    /// equal snapshots render byte-identically and scrapers see a fixed
    /// schema.
    pub fn to_json(&self) -> Json {
        let family = |labels: &[&'static str], hists: &[HistSnapshot]| {
            Json::Obj(
                labels
                    .iter()
                    .zip(hists)
                    .map(|(label, h)| (label.to_string(), h.to_json()))
                    .collect(),
            )
        };
        let op_labels: Vec<&'static str> = Op::ALL.iter().map(|o| o.as_str()).collect();
        let plan_labels: Vec<&'static str> = PLANS.iter().map(|p| p.as_str()).collect();
        let stage_labels: Vec<&'static str> = Stage::ALL.iter().map(|s| s.as_str()).collect();
        Json::obj([
            ("ops", family(&op_labels, &self.ops)),
            ("plans", family(&plan_labels, &self.plans)),
            ("push", self.push.to_json()),
            ("shed", Json::from(self.shed)),
            ("stages", family(&stage_labels, &self.stages)),
            ("subscriptions", Json::from(self.subscriptions)),
            ("wal_batch", self.wal_batch.to_json()),
            ("wal_fsync_us", self.wal_fsync_us.to_json()),
        ])
    }

    /// Parses the [`to_json`](MetricsSnapshot::to_json) form (strict:
    /// every known op/plan/stage key must be present).
    pub fn from_json(v: &Json) -> Result<MetricsSnapshot, String> {
        fn parse_family<const N: usize>(
            v: &Json,
            family: &str,
            labels: [&'static str; N],
        ) -> Result<[HistSnapshot; N], String> {
            let obj = v
                .get(family)
                .ok_or_else(|| format!("metrics missing {family:?}"))?;
            let mut out = [HistSnapshot::default(); N];
            for (slot, label) in out.iter_mut().zip(labels) {
                let h = obj
                    .get(label)
                    .ok_or_else(|| format!("metrics {family:?} missing {label:?}"))?;
                *slot = HistSnapshot::from_json(h).map_err(|e| format!("{family}.{label}: {e}"))?;
            }
            Ok(out)
        }
        let counter = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("metrics missing {key:?}"))
        };
        let hist = |key: &'static str| -> Result<HistSnapshot, String> {
            HistSnapshot::from_json(
                v.get(key)
                    .ok_or_else(|| format!("metrics missing {key:?}"))?,
            )
            .map_err(|e| format!("{key}: {e}"))
        };
        Ok(MetricsSnapshot {
            ops: parse_family(v, "ops", Op::ALL.map(|o| o.as_str()))?,
            plans: parse_family(v, "plans", PLANS.map(|p| p.as_str()))?,
            stages: parse_family(v, "stages", Stage::ALL.map(|s| s.as_str()))?,
            push: hist("push")?,
            shed: counter("shed")?,
            subscriptions: counter("subscriptions")?,
            wal_batch: hist("wal_batch")?,
            wal_fsync_us: hist("wal_fsync_us")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(seed: u64) -> MetricsSnapshot {
        let m = ShardMetrics::new();
        for k in 0..6u64 {
            let d = Duration::from_micros((seed + 1) * k * 3);
            m.record_op(Op::ALL[(k as usize) % Op::ALL.len()], d);
            m.record_plan(PLANS[(k as usize) % PLANS.len()], d);
            m.record_stage(Stage::ALL[(k as usize) % Stage::ALL.len()], d);
            m.record_push(d);
        }
        m.record_shed();
        let mut snap = m.snapshot();
        snap.subscriptions = seed % 3;
        // Stamp WAL commit stats the way a shard does from its backend.
        let wal = Histogram::new();
        wal.record_value(seed + 4);
        snap.wal_batch = wal.snapshot();
        wal.record(Duration::from_micros(seed * 90));
        snap.wal_fsync_us = wal.snapshot();
        snap
    }

    #[test]
    fn registry_records_into_the_right_families() {
        let m = ShardMetrics::new();
        m.record_op(Op::Answer, Duration::from_micros(10));
        m.record_op(Op::Install, Duration::from_micros(900));
        m.record_plan(PlanKind::KeyRepair, Duration::from_micros(10));
        m.record_stage(Stage::WalAppend, Duration::from_micros(700));
        let s = m.snapshot();
        assert_eq!(s.ops[Op::Answer as usize].count, 1);
        assert_eq!(s.ops[Op::Install as usize].sum_us, 900);
        assert_eq!(s.ops[Op::Drop as usize].count, 0);
        assert_eq!(s.plans[plan_index(PlanKind::KeyRepair)].count, 1);
        assert_eq!(s.plans[plan_index(PlanKind::Monolithic)].count, 0);
        assert_eq!(s.stages[Stage::WalAppend as usize].sum_us, 700);
    }

    #[test]
    fn snapshot_merge_is_associative() {
        let (a, b, c) = (synthetic(2), synthetic(11), synthetic(29));
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!(left.to_json().to_string(), right.to_json().to_string());
    }

    #[test]
    fn json_roundtrip_is_exact_and_schema_fixed() {
        let s = synthetic(5);
        let rendered = s.to_json().to_string();
        let parsed = MetricsSnapshot::from_json(&crate::json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(parsed, s);
        assert_eq!(parsed.to_json().to_string(), rendered);
        // Every family key is present even on an empty registry.
        let empty = ShardMetrics::new().snapshot().to_json().to_string();
        for label in [
            "\"answer\"",
            "\"install\"",
            "\"key-repair\"",
            "\"wal_append\"",
            "\"push\"",
            "\"shed\"",
            "\"subscriptions\"",
            "\"wal_batch\"",
            "\"wal_fsync_us\"",
        ] {
            assert!(empty.contains(label), "{label} missing from {empty}");
        }
        // A snapshot with a family key missing is rejected.
        let mut v = crate::json::parse(&rendered).unwrap();
        if let Some(ops) = v.get_mut("ops") {
            ops.remove("answer");
        }
        assert!(MetricsSnapshot::from_json(&v).is_err());
        // Same for the streaming keys.
        let mut v = crate::json::parse(&rendered).unwrap();
        v.remove("shed");
        assert!(MetricsSnapshot::from_json(&v).is_err());
        // And for the WAL group-commit histograms.
        let mut v = crate::json::parse(&rendered).unwrap();
        v.remove("wal_fsync_us");
        assert!(MetricsSnapshot::from_json(&v).is_err());
    }
}
