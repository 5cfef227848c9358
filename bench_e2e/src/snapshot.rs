//! The server's own numbers: differences of its `stats` and `metrics`
//! ops, `/proc` and the data directories around the window.

use crate::client::Conn;
use crate::deploy::Deployment;
use crate::report::Metrics;
use ocqa_engine::json::Json;
use ocqa_engine::obs::{Op as ObsOp, Stage, PLANS};
use ocqa_engine::MetricsSnapshot;

/// The `stats` and `metrics` ops plus what `/proc` and the data dirs
/// say, at one instant.
pub struct Snapshot {
    stats: Json,
    metrics: MetricsSnapshot,
    cpu_ms: f64,
    wal_bytes: u64,
}

impl Snapshot {
    /// Taken over a connection of its own, closed again at once, so the
    /// window never runs with a third socket parked on the server.
    pub fn take(deployment: &Deployment) -> Result<Snapshot, String> {
        let mut conn = Conn::connect(deployment.front_addr())?;
        let stats = conn.call(r#"{"op":"stats"}"#)?;
        let metrics = conn.call(r#"{"op":"metrics"}"#)?;
        let total = metrics
            .get("total")
            .ok_or("metrics reply without a total")?;
        Ok(Snapshot {
            stats,
            metrics: MetricsSnapshot::from_json(total)?,
            cpu_ms: deployment.cpu_ms(),
            wal_bytes: deployment.wal_bytes(),
        })
    }

    fn counter(&self, key: &str) -> f64 {
        self.stats.get(key).and_then(Json::as_f64).unwrap_or(0.0)
    }

    fn reconnects(&self) -> f64 {
        match self.stats.get("upstreams") {
            Some(Json::Arr(ups)) => ups
                .iter()
                .filter_map(|u| u.get("reconnects").and_then(Json::as_f64))
                .sum(),
            _ => 0.0,
        }
    }
}

fn position<T: PartialEq>(all: &[T], one: T) -> usize {
    all.iter().position(|x| *x == one).expect("listed in ALL")
}

/// Records everything the two snapshots around the window say about
/// the layers; returns the walks run in between.
pub fn server_side(
    m: &mut Metrics,
    before: &Snapshot,
    after: &Snapshot,
    ok_ops: u64,
    fact_bytes: u64,
) -> f64 {
    let delta = |key: &str| after.counter(key) - before.counter(key);
    let hist = |pick: &dyn Fn(&MetricsSnapshot) -> ocqa_engine::HistSnapshot| {
        let (a, b) = (pick(&after.metrics), pick(&before.metrics));
        ((a.count - b.count) as f64, (a.sum_us - b.sum_us) as f64)
    };
    let (answer_i, update_i) = (
        position(&ObsOp::ALL, ObsOp::Answer),
        position(&ObsOp::ALL, ObsOp::Update),
    );
    let (answers_n, answers_us) = hist(&|s| s.ops[answer_i]);
    let (updates_n, updates_us) = hist(&|s| s.ops[update_i]);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let served = delta("answers");
    m.put(
        "engine.cache.hit_share",
        "share",
        ratio(delta("cache_hits"), served),
        served as u64,
    );
    m.put(
        "engine.cache.invalidated_per_write",
        "count",
        ratio(delta("cache_invalidated"), updates_n),
        updates_n as u64,
    );
    // Server-side time per operation, and where it went. Stages are the
    // interesting parts of an operation, not a partition of it.
    let op_us = answers_us + updates_us;
    m.put(
        "engine.op.mean_us",
        "us",
        ratio(op_us, answers_n + updates_n),
        (answers_n + updates_n) as u64,
    );
    for (i, stage) in Stage::ALL.into_iter().enumerate() {
        let (n, us) = hist(&|s| s.stages[i]);
        m.put(
            &format!("engine.stage.{}_share", stage.as_str()),
            "share",
            ratio(us, op_us),
            n as u64,
        );
        if n > 0.0 {
            // The absolute mean, where the stage ran at all.
            let (name, unit, scale) = match stage {
                Stage::Sample => ("engine.stage.sample_ms", "ms", 1e3),
                Stage::CacheLookup => ("engine.stage.cache_lookup_us", "us", 1.0),
                Stage::FlightWait => ("engine.stage.flight_wait_us", "us", 1.0),
                Stage::WalAppend => ("engine.stage.wal_append_us", "us", 1.0),
            };
            m.put(name, unit, us / n / scale, n as u64);
        }
    }
    if answers_n > 0.0 {
        m.put(
            "engine.op.answer_ms",
            "ms",
            answers_us / answers_n / 1e3,
            answers_n as u64,
        );
    }
    if updates_n > 0.0 {
        m.put(
            "engine.op.update_us",
            "us",
            updates_us / updates_n,
            updates_n as u64,
        );
    }
    let plan_counts: Vec<f64> = (0..PLANS.len()).map(|i| hist(&|s| s.plans[i]).0).collect();
    let planned: f64 = plan_counts.iter().sum();
    for (plan, n) in PLANS.iter().zip(&plan_counts) {
        m.put(
            &format!("engine.planner.plan_share.{plan}"),
            "share",
            ratio(*n, planned),
            planned as u64,
        );
    }
    let (pushes, push_us) = hist(&|s| s.push);
    if pushes > 0.0 {
        m.put(
            "engine.subscribe.push_ms",
            "ms",
            push_us / pushes / 1e3,
            pushes as u64,
        );
    }
    m.put(
        "engine.upstream.reconnects",
        "count",
        after.reconnects() - before.reconnects(),
        1,
    );
    m.put(
        "engine.replicate.lag",
        "count",
        after.counter("replication_lag"),
        1,
    );
    // What the writes cost on disk: log bytes per write, and per byte of
    // the fact text the client sent.
    let wal = after.wal_bytes.saturating_sub(before.wal_bytes) as f64;
    m.put(
        "store.wal_bytes_per_write",
        "bytes",
        ratio(wal, updates_n),
        updates_n as u64,
    );
    m.put(
        "store.write_amp",
        "ratio",
        ratio(wal, fact_bytes as f64),
        updates_n as u64,
    );
    m.put(
        "cli.cpu_ms_per_op",
        "ms",
        ratio(after.cpu_ms - before.cpu_ms, ok_ops as f64),
        ok_ops,
    );
    delta("walks")
}
