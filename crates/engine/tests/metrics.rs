//! End-to-end tests of the `metrics` protocol op, from shard to router.
//!
//! Two properties matter. **Shape determinism**: a `metrics` response is
//! a fixed-schema document (every op/plan/stage key present, sparse
//! buckets), so a zero-traffic route proxy over N single-shard upstreams
//! answers byte-identically to an in-process N-shard engine — the same
//! determinism contract `tests/route.rs` enforces for the serving ops,
//! extended to the observability surface. **Count determinism**: latency
//! *sums* are wall-clock and cannot be compared across deployments, but
//! histogram *counts* move in lockstep with the workload, so identical
//! workloads must report identical counts through either front door.

use ocqa_engine::obs::{Op, Stage, PLANS};
use ocqa_engine::{
    json, serve_listener, Engine, EngineConfig, MetricsSnapshot, PlanKind, PushSession, RouteProxy,
};

/// Starts `n` single-shard engines behind TCP listeners, as
/// `ocqa serve --shards 1 --listen …` would.
fn spawn_upstreams(n: usize, workers: usize, cache: usize) -> Vec<String> {
    (0..n)
        .map(|_| {
            let engine = Engine::new(EngineConfig {
                workers,
                cache_capacity: cache,
                ..EngineConfig::default()
            });
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().unwrap().to_string();
            std::thread::spawn(move || {
                let _ = serve_listener(engine, listener);
            });
            addr
        })
        .collect()
}

/// Parses a `metrics` response line into its per-shard snapshots.
fn parse_metrics(line: &str) -> Vec<MetricsSnapshot> {
    let v = json::parse(line).expect("metrics response parses");
    assert_eq!(v.get("ok").and_then(|j| j.as_bool()), Some(true), "{line}");
    let Some(json::Json::Arr(entries)) = v.get("per_shard") else {
        panic!("no per_shard array in {line}");
    };
    entries
        .iter()
        .map(|e| MetricsSnapshot::from_json(e).expect("per_shard entry parses"))
        .collect()
}

fn op_count(snap: &MetricsSnapshot, op: Op) -> u64 {
    let idx = Op::ALL.iter().position(|o| *o == op).unwrap();
    snap.ops[idx].count
}

fn merged(shards: &[MetricsSnapshot]) -> MetricsSnapshot {
    let mut total = MetricsSnapshot::default();
    for snap in shards {
        total.merge(snap);
    }
    total
}

#[test]
fn routed_metrics_are_byte_identical_to_in_process_sharding() {
    let addrs = spawn_upstreams(3, 1, 16);
    let proxy = RouteProxy::connect(addrs).expect("connect router");
    let reference = Engine::new(EngineConfig {
        workers: 3,
        cache_capacity: 48,
        shards: 3,
        ..EngineConfig::default()
    });

    // Zero traffic: both deployments must render the identical
    // fixed-schema document, byte for byte. The router's `upstreams`
    // health block is router-only by design and is the sole exemption.
    let routed = proxy.handle_line(r#"{"op":"metrics"}"#);
    let direct = reference.handle_line(r#"{"op":"metrics"}"#).to_string();
    let strip_upstreams = |line: &str| {
        let mut v = json::parse(line).expect("metrics parses");
        v.remove("upstreams");
        v.to_string()
    };
    assert_eq!(
        strip_upstreams(&routed),
        direct,
        "zero-traffic metrics diverged"
    );

    // Identical workload through both front doors: latency sums are
    // wall-clock, but every histogram *count* must agree.
    let workload = [
        r#"{"op":"create_db","name":"orders","facts":"R(1,10). R(1,20).","constraints":"R(x,y), R(x,z) -> y = z."}"#.to_string(),
        r#"{"op":"create_db","name":"users","facts":"R(2,30). R(2,40).","constraints":"R(x,y), R(x,z) -> y = z."}"#.to_string(),
        r#"{"op":"answer","db":"orders","query":"(x) <- exists y: R(x,y)","eps":0.1,"delta":0.1,"seed":7}"#.to_string(),
        r#"{"op":"answer","db":"orders","query":"(x) <- exists y: R(x,y)","eps":0.1,"delta":0.1,"seed":7}"#.to_string(),
        r#"{"op":"answer","db":"users","query":"(x) <- exists y: R(x,y)","eps":0.1,"delta":0.1,"seed":3}"#.to_string(),
        r#"{"op":"insert","db":"users","facts":"R(5,50)."}"#.to_string(),
        r#"{"op":"drop_db","name":"users"}"#.to_string(),
    ];
    for line in &workload {
        assert_eq!(
            proxy.handle_line(line),
            reference.handle_line(line).to_string()
        );
    }

    let routed = merged(&parse_metrics(&proxy.handle_line(r#"{"op":"metrics"}"#)));
    let direct = merged(&parse_metrics(
        &reference.handle_line(r#"{"op":"metrics"}"#).to_string(),
    ));
    for op in Op::ALL {
        assert_eq!(
            op_count(&routed, op),
            op_count(&direct, op),
            "count for op {:?} diverged",
            op
        );
    }
    for (i, _) in PLANS.iter().enumerate() {
        assert_eq!(
            routed.plans[i].count,
            direct.plans[i].count,
            "count for plan {} diverged",
            PLANS[i].as_str()
        );
    }
    assert_eq!(op_count(&routed, Op::Answer), 3);
    assert_eq!(op_count(&routed, Op::Install), 2);
    assert_eq!(op_count(&routed, Op::Update), 1);
    assert_eq!(op_count(&routed, Op::Drop), 1);
}

#[test]
fn routed_explain_is_byte_identical_to_in_process_sharding() {
    let addrs = spawn_upstreams(3, 1, 16);
    let proxy = RouteProxy::connect(addrs).expect("connect router");
    let reference = Engine::new(EngineConfig {
        workers: 3,
        cache_capacity: 48,
        shards: 3,
        ..EngineConfig::default()
    });

    // Zero-feedback state on purpose: with no recorded observations the
    // candidate costs are the integer analytic priors, so the whole
    // `explain` document — costs included — must agree byte for byte.
    let workload = [
        r#"{"op":"create_db","name":"kv","facts":"R(1,10). R(1,20). R(2,30).","constraints":"R(x,y), R(x,z) -> y = z."}"#,
        r#"{"op":"create_db","name":"net","facts":"Pref(a,b). Pref(b,a). Pref(c,d). Pref(d,c).","constraints":"Pref(x,y), Pref(y,x) -> false."}"#,
    ];
    for line in workload {
        assert_eq!(
            proxy.handle_line(line),
            reference.handle_line(line).to_string()
        );
    }
    for (explain, chosen, prior) in [
        (
            r#"{"op":"explain","db":"kv"}"#,
            "\"chosen\":\"key-repair\"",
            "\"source\":\"prior\"",
        ),
        (
            r#"{"op":"explain","db":"net"}"#,
            "\"chosen\":\"localized\"",
            "\"source\":\"prior\"",
        ),
        // A non-component-local generator gates out both fast paths.
        (
            r#"{"op":"explain","db":"net","generator":"preference"}"#,
            "\"chosen\":\"monolithic\"",
            "\"gate\":\"component-local\"",
        ),
    ] {
        let routed = proxy.handle_line(explain);
        let direct = reference.handle_line(explain).to_string();
        assert_eq!(routed, direct, "explain diverged for {explain}");
        assert!(routed.contains("\"mode\":\"cost\""), "{routed}");
        assert!(routed.contains(chosen), "{routed}");
        assert!(routed.contains(prior), "{routed}");
    }
}

#[test]
fn metrics_counts_reflect_the_workload() {
    let engine = Engine::new(EngineConfig {
        workers: 2,
        cache_capacity: 16,
        shards: 2,
        ..EngineConfig::default()
    });
    let create = r#"{"op":"create_db","name":"kv","facts":"R(1,10). R(1,20). R(2,30).","constraints":"R(x,y), R(x,z) -> y = z."}"#;
    assert!(engine
        .handle_line(create)
        .to_string()
        .contains("\"ok\":true"));
    let answer = r#"{"op":"answer","db":"kv","query":"(x) <- exists y: R(x,y)","eps":0.1,"delta":0.1,"seed":7}"#;
    let cold = engine.handle_line(answer).to_string();
    assert!(cold.contains("\"plan\":\"key-repair\""), "{cold}");
    let cached = engine.handle_line(answer).to_string();
    assert!(cached.contains("\"cached\":true"), "{cached}");
    // A failed answer must not move the op/plan histograms.
    let err = engine
        .handle_line(r#"{"op":"answer","db":"ghost","query":"(x) <- R(x,y)","seed":0}"#)
        .to_string();
    assert!(err.contains("\"ok\":false"), "{err}");

    let line = engine.handle_line(r#"{"op":"metrics"}"#).to_string();
    let v = json::parse(&line).unwrap();
    assert_eq!(v.get("shards").and_then(|j| j.as_u64()), Some(2));
    let shards = parse_metrics(&line);
    assert_eq!(shards.len(), 2);
    let total = merged(&shards);

    assert_eq!(op_count(&total, Op::Answer), 2, "{line}");
    assert_eq!(op_count(&total, Op::Install), 1);
    let plan_idx = PLANS
        .iter()
        .position(|p| *p == PlanKind::KeyRepair)
        .unwrap();
    assert_eq!(total.plans[plan_idx].count, 2, "both answers key-repair");
    let stage_idx = Stage::ALL
        .iter()
        .position(|s| *s == Stage::CacheLookup)
        .unwrap();
    assert!(
        total.stages[stage_idx].count >= 2,
        "cache lookups recorded: {line}"
    );
    // The rendered `total` must equal the merge of `per_shard` — the
    // same invariant the router relies on when it aggregates upstreams.
    let rendered_total = MetricsSnapshot::from_json(v.get("total").unwrap()).unwrap();
    assert_eq!(rendered_total, total, "total is the per-shard merge");
}

#[test]
fn subscription_gauges_sum_exactly_once_through_the_router() {
    let addrs = spawn_upstreams(2, 1, 8);
    let proxy = RouteProxy::connect_with(addrs, 0, 64).expect("connect router");
    let reference = Engine::new(EngineConfig {
        workers: 2,
        cache_capacity: 16,
        shards: 2,
        ..EngineConfig::default()
    });
    let setup = [
        r#"{"op":"create_db","name":"prefs","facts":"R(1,10). R(1,20).","constraints":"R(x,y), R(x,z) -> y = z."}"#,
        r#"{"op":"create_db","name":"orders","facts":"R(2,30). R(2,40).","constraints":"R(x,y), R(x,z) -> y = z."}"#,
    ];
    for line in setup {
        assert_eq!(
            proxy.handle_line(line),
            reference.handle_line(line).to_string()
        );
    }
    let subscribes = [
        r#"{"op":"subscribe","db":"prefs","query":"(x) <- exists y: R(x,y)","eps":0.1,"delta":0.1,"seed":7}"#,
        r#"{"op":"subscribe","db":"prefs","query":"(y) <- exists x: R(x,y)","eps":0.1,"delta":0.1,"seed":7}"#,
        r#"{"op":"subscribe","db":"orders","query":"(x) <- exists y: R(x,y)","eps":0.1,"delta":0.1,"seed":7}"#,
    ];
    let routed_session = PushSession::new();
    let direct_session = PushSession::new();
    for line in subscribes {
        assert_eq!(
            proxy.handle_open_line(line, &routed_session),
            reference
                .handle_open_line(line, &direct_session)
                .to_string()
        );
    }

    // The gauge is per-shard; the router's merge must count each
    // shard's registry exactly once — three live subscriptions total,
    // however the databases landed.
    let check = |line: &str| {
        let shards = parse_metrics(line);
        let per_shard: u64 = shards.iter().map(|s| s.subscriptions).sum();
        assert_eq!(per_shard, 3, "{line}");
        let v = json::parse(line).unwrap();
        let total = MetricsSnapshot::from_json(v.get("total").unwrap()).unwrap();
        assert_eq!(total.subscriptions, 3, "double-counted: {line}");
    };
    check(&proxy.handle_line(r#"{"op":"metrics"}"#));
    check(&reference.handle_line(r#"{"op":"metrics"}"#).to_string());

    // The `stats` gauge is the same sum, through both front doors.
    for line in [
        proxy.handle_line(r#"{"op":"stats"}"#),
        reference.handle_line(r#"{"op":"stats"}"#).to_string(),
    ] {
        let v = json::parse(&line).unwrap();
        assert_eq!(
            v.get("subscriptions").and_then(|j| j.as_u64()),
            Some(3),
            "{line}"
        );
    }

    // Unsubscribing moves the gauge down identically.
    let unsub = r#"{"op":"unsubscribe","db":"prefs","sub":1}"#;
    assert_eq!(
        proxy.handle_open_line(unsub, &routed_session),
        reference
            .handle_open_line(unsub, &direct_session)
            .to_string()
    );
    let subscriptions = |line: String| {
        let v = json::parse(&line).unwrap();
        v.get("subscriptions").and_then(|j| j.as_u64())
    };
    assert_eq!(
        subscriptions(reference.handle_line(r#"{"op":"stats"}"#).to_string()),
        Some(2)
    );
    // Through the router the upstream reaps the subscription when its
    // connection worker next sees the closed session (see
    // `proxy_unsubscribe`), so the gauge settles rather than drops at once.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let routed = subscriptions(proxy.handle_line(r#"{"op":"stats"}"#));
        if routed == Some(2) {
            break;
        }
        assert!(
            routed == Some(3) && std::time::Instant::now() < deadline,
            "routed subscriptions never settled at 2: {routed:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

#[test]
fn stats_report_uptime_and_build_version() {
    let engine = Engine::new(EngineConfig::default());
    let line = engine.handle_line(r#"{"op":"stats"}"#).to_string();
    let v = json::parse(&line).unwrap();
    assert!(
        v.get("uptime_ms").and_then(|j| j.as_u64()).is_some(),
        "{line}"
    );
    assert_eq!(
        v.get("build").and_then(|j| j.as_str()),
        Some(env!("CARGO_PKG_VERSION")),
        "{line}"
    );
}

#[test]
fn routed_stats_carry_per_upstream_health() {
    let addrs = spawn_upstreams(2, 1, 8);
    let proxy = RouteProxy::connect(addrs.clone()).expect("connect router");
    let line = proxy.handle_line(r#"{"op":"stats"}"#);
    let v = json::parse(&line).unwrap();
    let Some(json::Json::Arr(ups)) = v.get("upstreams") else {
        panic!("no upstreams health in {line}");
    };
    assert_eq!(ups.len(), 2, "{line}");
    for (entry, addr) in ups.iter().zip(&addrs) {
        assert_eq!(
            entry.get("addr").and_then(|j| j.as_str()),
            Some(addr.as_str())
        );
        assert_eq!(entry.get("healthy").and_then(|j| j.as_bool()), Some(true));
        assert_eq!(entry.get("reconnects").and_then(|j| j.as_u64()), Some(0));
        let dial = entry.get("dial").expect("dial histogram present");
        assert!(
            dial.get("count").and_then(|j| j.as_u64()).unwrap_or(0) >= 1,
            "connect() dialed at least once: {line}"
        );
    }
}
