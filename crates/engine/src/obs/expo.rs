//! Prometheus text exposition for the serving engine — no dependencies,
//! hand-rolled HTTP.
//!
//! The `--metrics-addr` listener renders the engine's own `stats` and
//! `metrics` protocol responses as Prometheus text format 0.0.4, so a
//! dashboard can scrape a live `ocqa serve` *or* `ocqa route` process:
//! the renderer is built on [`LineService`], the same abstraction both
//! deployments serve the NDJSON protocol through, and therefore needs no
//! knowledge of which one it is observing.
//!
//! Counters keep their protocol names under an `ocqa_` prefix
//! (`ocqa_answers_total`, `ocqa_cache_hits_total`, …); histograms become
//! conventional `_bucket`/`_sum`/`_count` series labeled by shard and by
//! op/plan/stage (`ocqa_op_latency_us_bucket{op="answer",shard="0",
//! le="63"}`). Bucket `le` bounds are the inclusive upper edges of the
//! log2 buckets ([`bucket_bound`]); zero-delta buckets are elided (legal
//! in the exposition format — `+Inf` is always present), keeping scrapes
//! small.

use super::hist::{bucket_bound, HistSnapshot, BUCKETS};
use super::{MetricsSnapshot, Op, Stage, PLANS};
use crate::json::Json;
use crate::server::LineService;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// How long one scrape connection may take to send its request head and
/// drain the response. A stuck scraper must not wedge the listener.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(5);

/// Upper bound on the HTTP request head we bother reading.
const MAX_REQUEST_HEAD: u64 = 16 * 1024;

/// Renders the full Prometheus exposition document for a serving
/// process, by asking it for `stats` and `metrics` over its own protocol.
pub fn render_prometheus<S: LineService + ?Sized>(service: &S) -> String {
    let mut out = String::new();
    let stats = crate::json::parse(&service.serve_line(r#"{"op":"stats"}"#)).ok();
    let metrics = crate::json::parse(&service.serve_line(r#"{"op":"metrics"}"#)).ok();
    if let Some(stats) = stats.filter(is_ok) {
        render_stats(&mut out, &stats);
    } else {
        out.push_str("# stats unavailable\n");
    }
    match metrics.filter(is_ok) {
        Some(metrics) => render_metrics(&mut out, &metrics),
        None => out.push_str("# metrics unavailable\n"),
    }
    out
}

fn is_ok(v: &Json) -> bool {
    v.get("ok").and_then(Json::as_bool) == Some(true)
}

/// The flat `stats` counters, exported under their protocol names.
fn render_stats(out: &mut String, stats: &Json) {
    if let Some(build) = stats.get("build").and_then(Json::as_str) {
        let _ = writeln!(out, "# TYPE ocqa_build_info gauge");
        let _ = writeln!(out, "ocqa_build_info{{version={build:?}}} 1");
    }
    let gauges = [
        "uptime_ms",
        "workers",
        "databases",
        "prepared",
        "shards",
        "subscriptions",
    ];
    for key in gauges {
        if let Some(v) = stats.get(key).and_then(Json::as_u64) {
            let _ = writeln!(out, "# TYPE ocqa_{key} gauge");
            let _ = writeln!(out, "ocqa_{key} {v}");
        }
    }
    let counters = [
        "requests",
        "answers",
        "walks",
        "coalesced",
        "cache_hits",
        "cache_misses",
        "cache_invalidated",
        "cache_evicted",
        "cache_stale_drops",
    ];
    for key in counters {
        if let Some(v) = stats.get(key).and_then(Json::as_u64) {
            let _ = writeln!(out, "# TYPE ocqa_{key}_total counter");
            let _ = writeln!(out, "ocqa_{key}_total {v}");
        }
    }
    // Router deployments: per-upstream health, labeled by shard/address.
    if let Some(Json::Arr(ups)) = stats.get("upstreams") {
        let _ = writeln!(out, "# TYPE ocqa_upstream_healthy gauge");
        let _ = writeln!(out, "# TYPE ocqa_upstream_reconnects_total counter");
        for (k, up) in ups.iter().enumerate() {
            let addr = up.get("addr").and_then(Json::as_str).unwrap_or("?");
            let healthy = up.get("healthy").and_then(Json::as_bool) == Some(true);
            let reconnects = up.get("reconnects").and_then(Json::as_u64).unwrap_or(0);
            let _ = writeln!(
                out,
                "ocqa_upstream_healthy{{addr={addr:?},shard=\"{k}\"}} {}",
                u8::from(healthy)
            );
            let _ = writeln!(
                out,
                "ocqa_upstream_reconnects_total{{addr={addr:?},shard=\"{k}\"}} {reconnects}"
            );
        }
    }
}

/// The per-shard latency histograms from a `metrics` response, plus the
/// elastic-cluster gauges carried at the response's top level.
fn render_metrics(out: &mut String, metrics: &Json) {
    // Topology epoch and rebalance moves are gauges of the serving
    // deployment as a whole; replication lag is the count of mutations a
    // detached standby has missed (summed across upstreams by the
    // router's fan-out) — nonzero means failover would lose writes.
    let elastic = [
        ("topology_epoch", "ocqa_topology_epoch", "gauge"),
        ("rebalance_moves", "ocqa_rebalance_moves_total", "counter"),
        ("replication_lag", "ocqa_replication_lag_records", "gauge"),
    ];
    for (key, name, kind) in elastic {
        if let Some(v) = metrics.get(key).and_then(Json::as_u64) {
            let _ = writeln!(out, "# TYPE {name} {kind}");
            let _ = writeln!(out, "{name} {v}");
        }
    }
    let Some(Json::Arr(shards)) = metrics.get("per_shard") else {
        out.push_str("# metrics malformed: no per_shard\n");
        return;
    };
    let _ = writeln!(out, "# TYPE ocqa_op_latency_us histogram");
    let _ = writeln!(out, "# TYPE ocqa_plan_latency_us histogram");
    let _ = writeln!(out, "# TYPE ocqa_stage_latency_us histogram");
    let _ = writeln!(out, "# TYPE ocqa_push_latency_us histogram");
    let _ = writeln!(out, "# TYPE ocqa_subs_shed_total counter");
    let _ = writeln!(out, "# TYPE ocqa_shard_subscriptions gauge");
    for entry in shards {
        let shard = entry.get("shard").and_then(Json::as_u64).unwrap_or(0);
        let Ok(snap) = MetricsSnapshot::from_json(entry) else {
            let _ = writeln!(out, "# shard {shard}: malformed snapshot");
            continue;
        };
        for (op, h) in Op::ALL.iter().zip(&snap.ops) {
            render_hist(out, "ocqa_op_latency_us", "op", op.as_str(), shard, h);
        }
        for (plan, h) in PLANS.iter().zip(&snap.plans) {
            render_hist(out, "ocqa_plan_latency_us", "plan", plan.as_str(), shard, h);
        }
        for (stage, h) in Stage::ALL.iter().zip(&snap.stages) {
            render_hist(
                out,
                "ocqa_stage_latency_us",
                "stage",
                stage.as_str(),
                shard,
                h,
            );
        }
        render_hist(
            out,
            "ocqa_push_latency_us",
            "kind",
            "estimate",
            shard,
            &snap.push,
        );
        let _ = writeln!(
            out,
            "ocqa_subs_shed_total{{shard=\"{shard}\"}} {}",
            snap.shed
        );
        let _ = writeln!(
            out,
            "ocqa_shard_subscriptions{{shard=\"{shard}\"}} {}",
            snap.subscriptions
        );
    }
}

fn render_hist(
    out: &mut String,
    name: &str,
    label: &str,
    value: &str,
    shard: u64,
    h: &HistSnapshot,
) {
    let mut cumulative = 0u64;
    for (i, n) in h.buckets.iter().enumerate().take(BUCKETS - 1) {
        if *n == 0 {
            continue; // elided: the next emitted bucket carries the sum
        }
        cumulative += n;
        let le = bucket_bound(i).expect("bounded bucket");
        let _ = writeln!(
            out,
            "{name}_bucket{{le=\"{le}\",{label}=\"{value}\",shard=\"{shard}\"}} {cumulative}"
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{{le=\"+Inf\",{label}=\"{value}\",shard=\"{shard}\"}} {}",
        h.count
    );
    let _ = writeln!(
        out,
        "{name}_sum{{{label}=\"{value}\",shard=\"{shard}\"}} {}",
        h.sum_us
    );
    let _ = writeln!(
        out,
        "{name}_count{{{label}=\"{value}\",shard=\"{shard}\"}} {}",
        h.count
    );
}

/// Serves one scrape connection: reads and discards the HTTP request
/// head, then writes the full exposition document. Any request line
/// (`GET /metrics`, `GET /`, a health checker's `HEAD`) gets the same
/// document — the listener exposes nothing else.
pub fn serve_scrape<S: LineService + ?Sized>(
    service: &S,
    stream: &mut TcpStream,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(SCRAPE_TIMEOUT))?;
    stream.set_write_timeout(Some(SCRAPE_TIMEOUT))?;
    // Drain the request head (request line + headers) up to a blank
    // line, bounded so a garbage-spewing client cannot pin the thread.
    let mut head = BufReader::new(stream.try_clone()?).take(MAX_REQUEST_HEAD);
    let mut line = String::new();
    loop {
        line.clear();
        let n = head.read_line(&mut line)?;
        if n == 0 || line.trim_end_matches(['\r', '\n']).is_empty() {
            break;
        }
    }
    let body = render_prometheus(service);
    // One write, as for NDJSON lines (see `crate::server`).
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    let _ = stream.write_all(response.as_bytes());
    stream.flush()
}

/// Spawns the `--metrics-addr` scrape listener on its own thread.
/// Scrapes are served sequentially — one dashboard polling every few
/// seconds, not a request path — and a failed accept ends the listener
/// without touching the serving process.
pub fn spawn_exposition_listener<S: LineService + 'static>(service: Arc<S>, listener: TcpListener) {
    let run = move || {
        for conn in listener.incoming() {
            let Ok(mut stream) = conn else { continue };
            let _ = serve_scrape(&*service, &mut stream);
        }
    };
    if let Err(e) = std::thread::Builder::new()
        .name("ocqa-metrics".into())
        .spawn(run)
    {
        eprintln!("ocqa: metrics listener thread failed to start: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};

    fn engine() -> Arc<Engine> {
        Engine::new(EngineConfig {
            workers: 2,
            cache_capacity: 64,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn renders_counters_and_histograms() {
        let e = engine();
        assert!(e
            .handle_line(
                r#"{"op":"create_db","name":"kv","facts":"R(1,10). R(1,20).","constraints":"R(x,y), R(x,z) -> y = z."}"#
            )
            .to_string()
            .contains("\"ok\":true"));
        for seed in [1, 1] {
            let line = format!(
                r#"{{"op":"answer","db":"kv","query":"(x) <- exists y: R(x,y)","eps":0.1,"delta":0.1,"seed":{seed}}}"#
            );
            assert!(e.handle_line(&line).to_string().contains("\"answers\""));
        }
        let text = render_prometheus(&*e);
        assert!(text.contains("ocqa_build_info{version="), "{text}");
        assert!(text.contains("ocqa_answers_total 2"), "{text}");
        assert!(text.contains("ocqa_cache_hits_total 1"), "{text}");
        assert!(text.contains("ocqa_uptime_ms"), "{text}");
        assert!(
            text.contains("ocqa_op_latency_us_count{op=\"answer\",shard=\"0\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("ocqa_op_latency_us_count{op=\"install\",shard=\"0\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("ocqa_plan_latency_us_count{plan=\"key-repair\",shard=\"0\"} 2"),
            "{text}"
        );
        // 3 lookups: the cold answer's miss + its leader re-check, and
        // the cached answer's hit.
        assert!(
            text.contains("ocqa_stage_latency_us_count{stage=\"cache_lookup\",shard=\"0\"} 3"),
            "{text}"
        );
        // Cumulative bucket lines end at +Inf with the total count.
        assert!(
            text.contains("ocqa_op_latency_us_bucket{le=\"+Inf\",op=\"answer\",shard=\"0\"} 2"),
            "{text}"
        );
        // Elastic-cluster gauges: an in-process engine sits at epoch 1
        // with no moves and no standby to lag.
        assert!(text.contains("ocqa_topology_epoch 1"), "{text}");
        assert!(text.contains("ocqa_rebalance_moves_total 0"), "{text}");
        assert!(text.contains("ocqa_replication_lag_records 0"), "{text}");
        // Streaming series are present even with no subscribers.
        assert!(text.contains("ocqa_subscriptions 0"), "{text}");
        assert!(
            text.contains("ocqa_push_latency_us_count{kind=\"estimate\",shard=\"0\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("ocqa_subs_shed_total{shard=\"0\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("ocqa_shard_subscriptions{shard=\"0\"} 0"),
            "{text}"
        );
    }

    #[test]
    fn scrape_listener_answers_http() {
        let e = engine();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        spawn_exposition_listener(e, listener);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.0 200 OK\r\n"), "{resp}");
        assert!(resp.contains("text/plain; version=0.0.4"), "{resp}");
        assert!(resp.contains("ocqa_requests_total"), "{resp}");
        // Content-Length matches the body exactly.
        let (head, body) = resp.split_once("\r\n\r\n").unwrap();
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(body.len(), len);
    }
}
