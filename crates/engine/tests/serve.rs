//! End-to-end tests of the serving engine over real TCP connections.

use ocqa_engine::{serve_listener, Engine, EngineConfig, EngineRequest, EngineResponse, QueryRef};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

/// Starts an engine + TCP server on an ephemeral port.
fn spawn_server(workers: usize) -> (Arc<Engine>, std::net::SocketAddr) {
    let engine = Engine::new(EngineConfig {
        workers,
        cache_capacity: 256,
        ..EngineConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server_engine = engine.clone();
    std::thread::spawn(move || {
        let _ = serve_listener(server_engine, listener);
    });
    (engine, addr)
}

/// One protocol exchange on an open connection.
fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &str) -> String {
    writeln!(stream, "{req}").unwrap();
    stream.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line
}

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

const CREATE: &str = r#"{"op":"create_db","name":"kv","facts":"R(1,10). R(1,20). R(2,30). R(2,40). R(3,50).","constraints":"R(x,y), R(x,z) -> y = z."}"#;
const ANSWER: &str =
    r#"{"op":"answer","db":"kv","query":"(x) <- exists y: R(x,y)","eps":0.1,"delta":0.1,"seed":7}"#;

#[test]
fn four_concurrent_sessions_share_one_catalog() {
    let (_engine, addr) = spawn_server(4);
    {
        let (mut s, mut r) = connect(addr);
        let resp = roundtrip(&mut s, &mut r, CREATE);
        assert!(resp.contains("\"ok\":true"), "{resp}");
    }

    // Four clients answer the same query against the shared catalog,
    // simultaneously; every one must see the full, identical result.
    let handles: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let (mut s, mut r) = connect(addr);
                roundtrip(&mut s, &mut r, ANSWER)
            })
        })
        .collect();
    let responses: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for resp in &responses {
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert!(resp.contains("\"walks\":150"), "{resp}");
        // Key 3 is conflict-free: survives every repair with p = 1.
        assert!(resp.contains("\"tuple\":[3]"), "{resp}");
    }
    // All four sampled the same (db, query, generator, ε/δ, seed) —
    // whether or not they raced past the cache, the answers must agree.
    let strip = |s: &str| {
        // The cache counters and cached flag legitimately differ.
        let v = ocqa_engine::json::parse(s.trim()).unwrap();
        v.get("answers").unwrap().to_string()
    };
    let first = strip(&responses[0]);
    for resp in &responses[1..] {
        assert_eq!(strip(resp), first, "divergent answers across sessions");
    }
}

#[test]
fn cache_hits_are_observable_and_updates_invalidate() {
    let (_engine, addr) = spawn_server(2);
    let (mut s, mut r) = connect(addr);
    assert!(roundtrip(&mut s, &mut r, CREATE).contains("\"ok\":true"));

    let cold = roundtrip(&mut s, &mut r, ANSWER);
    assert!(cold.contains("\"cached\":false"), "{cold}");
    assert!(cold.contains("\"db_version\":1"), "{cold}");

    // Same request from a *different* session: served from the cache.
    let (mut s2, mut r2) = connect(addr);
    let warm = roundtrip(&mut s2, &mut r2, ANSWER);
    assert!(warm.contains("\"cached\":true"), "{warm}");
    assert!(warm.contains("\"cache_hits\":1"), "{warm}");

    // Insert bumps the version and invalidates: a recompute follows.
    let upd = roundtrip(
        &mut s,
        &mut r,
        r#"{"op":"insert","db":"kv","facts":"R(4,60)."}"#,
    );
    assert!(upd.contains("\"version\":2"), "{upd}");
    let after = roundtrip(&mut s, &mut r, ANSWER);
    assert!(after.contains("\"cached\":false"), "{after}");
    assert!(after.contains("\"db_version\":2"), "{after}");
    assert!(after.contains("\"tuple\":[4]"), "new fact visible: {after}");

    // Delete likewise.
    let upd = roundtrip(
        &mut s,
        &mut r,
        r#"{"op":"delete","db":"kv","facts":"R(4,60)."}"#,
    );
    assert!(upd.contains("\"version\":3"), "{upd}");
    let after = roundtrip(&mut s, &mut r, ANSWER);
    assert!(after.contains("\"db_version\":3"), "{after}");
    assert!(!after.contains("\"tuple\":[4]"), "stale fact gone: {after}");
}

#[test]
fn fixed_seed_answers_identical_across_pool_sizes() {
    let mut outputs = Vec::new();
    for workers in [1, 2, 8] {
        let engine = Engine::new(EngineConfig {
            workers,
            cache_capacity: 16,
            ..EngineConfig::default()
        });
        let resp = engine.handle(EngineRequest::CreateDb {
            name: "kv".into(),
            facts: "R(1,10). R(1,20). R(2,30). R(2,40).".into(),
            constraints: "R(x,y), R(x,z) -> y = z.".into(),
        });
        assert!(matches!(resp, EngineResponse::Created(_)));
        let EngineResponse::Answer(a) = engine.handle(EngineRequest::Answer {
            db: "kv".into(),
            query: QueryRef::Text("(y) <- exists x: R(x,y)".into()),
            generator: "uniform".into(),
            eps: 0.05,
            delta: 0.05,
            seed: 123,
            plan: None,
        }) else {
            panic!("expected answer");
        };
        outputs.push(
            a.answers
                .iter()
                .map(|row| (row.tuple.clone(), row.p))
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(outputs[0], outputs[1], "1 vs 2 workers");
    assert_eq!(outputs[0], outputs[2], "1 vs 8 workers");
}

#[test]
fn answers_report_their_plan_over_the_wire() {
    let (_engine, addr) = spawn_server(2);
    let (mut s, mut r) = connect(addr);

    // Key-only database: served by the key-repair fast path.
    assert!(roundtrip(&mut s, &mut r, CREATE).contains("\"ok\":true"));
    let resp = roundtrip(&mut s, &mut r, ANSWER);
    assert!(resp.contains("\"plan\":\"key-repair\""), "{resp}");
    assert!(resp.contains("\"p_cond\":"), "{resp}");

    // Multi-component denial database: localized sampling.
    let create_dc = r#"{"op":"create_db","name":"net","facts":"Pref(a,b). Pref(b,a). Pref(c,d). Pref(d,c).","constraints":"Pref(x,y), Pref(y,x) -> false."}"#;
    assert!(roundtrip(&mut s, &mut r, create_dc).contains("\"ok\":true"));
    let resp = roundtrip(
        &mut s,
        &mut r,
        r#"{"op":"answer","db":"net","query":"(x) <- exists y: Pref(x,y)","seed":7}"#,
    );
    assert!(resp.contains("\"plan\":\"localized\""), "{resp}");

    // A non-component-local generator on the same database falls back.
    let resp = roundtrip(
        &mut s,
        &mut r,
        r#"{"op":"answer","db":"net","query":"(x) <- exists y: Pref(x,y)","generator":"preference","seed":7}"#,
    );
    assert!(resp.contains("\"plan\":\"monolithic\""), "{resp}");

    // Explicit overrides work over the wire, unsound ones error.
    let resp = roundtrip(
        &mut s,
        &mut r,
        r#"{"op":"answer","db":"kv","query":"(x) <- exists y: R(x,y)","plan":"monolithic","seed":7}"#,
    );
    assert!(resp.contains("\"plan\":\"monolithic\""), "{resp}");
    // An unsound override is a structured rejection naming the plan and
    // the feasibility gate that refused it — never a silent fallback to
    // a different plan.
    let resp = roundtrip(
        &mut s,
        &mut r,
        r#"{"op":"answer","db":"net","query":"(x) <- exists y: Pref(x,y)","plan":"key-repair","seed":7}"#,
    );
    assert!(resp.contains("\"ok\":false"), "{resp}");
    assert!(resp.contains("\"plan\":\"key-repair\""), "{resp}");
    assert!(resp.contains("\"gate\":\"key-cover\""), "{resp}");
    assert!(resp.contains("\"error\":\"bad request"), "{resp}");
    // Same database, localized override under a non-component-local
    // generator: a different gate.
    let resp = roundtrip(
        &mut s,
        &mut r,
        r#"{"op":"answer","db":"net","query":"(x) <- exists y: Pref(x,y)","generator":"preference","plan":"localized","seed":7}"#,
    );
    assert!(resp.contains("\"ok\":false"), "{resp}");
    assert!(resp.contains("\"gate\":\"component-local\""), "{resp}");

    // `list` exposes each database's structural classification.
    let resp = roundtrip(&mut s, &mut r, r#"{"op":"list"}"#);
    assert!(resp.contains("\"plan\":\"key-repair\""), "{resp}");
    assert!(resp.contains("\"plan\":\"localized\""), "{resp}");
}

#[test]
fn sharded_server_reports_shards_over_the_wire() {
    // A 4-shard engine behind one TCP front door: routed responses carry
    // the serving shard, list entries carry each database's shard, and
    // stats fan out across every shard exactly once.
    let engine = Engine::new(EngineConfig {
        workers: 4,
        cache_capacity: 64,
        shards: 4,
        ..EngineConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server_engine = engine.clone();
    std::thread::spawn(move || {
        let _ = serve_listener(server_engine, listener);
    });
    let (mut s, mut r) = connect(addr);

    let names = ["orders", "users", "events", "billing", "audit"];
    for name in names {
        let create = format!(
            r#"{{"op":"create_db","name":"{name}","facts":"R(1,10). R(1,20).","constraints":"R(x,y), R(x,z) -> y = z."}}"#
        );
        let resp = roundtrip(&mut s, &mut r, &create);
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert!(
            resp.contains("\"shard\":"),
            "create must report its shard: {resp}"
        );
        // The reported shard matches the front door's routing.
        let shard = engine.shard_of(name) as u64;
        assert!(
            resp.contains(&format!("\"shard\":{shard}")),
            "{name} routed to {shard}: {resp}"
        );
    }
    // Answers carry the shard and the coalesced flag.
    let resp = roundtrip(
        &mut s,
        &mut r,
        r#"{"op":"answer","db":"orders","query":"(x) <- exists y: R(x,y)","seed":7}"#,
    );
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(resp.contains("\"coalesced\":false"), "{resp}");
    let shard = engine.shard_of("orders") as u64;
    assert!(resp.contains(&format!("\"shard\":{shard}")), "{resp}");

    // Every list entry names its shard; the merged list is complete.
    let resp = roundtrip(&mut s, &mut r, r#"{"op":"list"}"#);
    for name in names {
        assert!(resp.contains(&format!("\"name\":\"{name}\"")), "{resp}");
    }
    assert_eq!(
        resp.matches("\"shard\":").count(),
        names.len(),
        "one shard tag per database: {resp}"
    );

    // Stats report the shard count and sum per-shard counters once.
    let resp = roundtrip(&mut s, &mut r, r#"{"op":"stats"}"#);
    assert!(resp.contains("\"shards\":4"), "{resp}");
    assert!(resp.contains("\"databases\":5"), "{resp}");
    assert!(resp.contains("\"answers\":1"), "{resp}");
    assert!(resp.contains("\"walks\":150"), "{resp}");
    assert!(resp.contains("\"coalesced\":0"), "{resp}");
    assert!(resp.contains("\"cache_stale_drops\":0"), "{resp}");
}

#[test]
fn sessions_see_errors_inline_and_keep_going() {
    let (_engine, addr) = spawn_server(1);
    let (mut s, mut r) = connect(addr);
    let resp = roundtrip(
        &mut s,
        &mut r,
        r#"{"op":"answer","db":"ghost","query":"(x) <- R(x)"}"#,
    );
    assert!(resp.contains("\"ok\":false") && resp.contains("unknown database"));
    let resp = roundtrip(&mut s, &mut r, "}{");
    assert!(resp.contains("\"ok\":false"));
    // The session survives bad requests.
    let resp = roundtrip(&mut s, &mut r, r#"{"op":"ping"}"#);
    assert!(resp.contains("\"pong\":true"));
}

#[test]
fn sequential_requests_pay_no_delayed_ack_stall() {
    // A plain client socket (Nagle on), each request in one write. A
    // reply written as line + newline in two writes waits out the
    // client's ~40 ms delayed ACK: 50 pings took ≈ 2.2 s.
    let (_engine, addr) = spawn_server(1);
    let (mut s, mut r) = connect(addr);
    let start = std::time::Instant::now();
    for _ in 0..50 {
        s.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert!(line.contains("\"pong\":true"), "{line}");
    }
    let elapsed = start.elapsed();
    assert!(elapsed.as_millis() < 1000, "50 pings took {elapsed:?}");
}

#[test]
fn an_8_mib_line_is_framed_and_parsed_in_linear_time() {
    // Rescanning the whole buffered line for its newline after every
    // read, and re-validating the rest of the input per JSON string
    // character, made this line take minutes.
    let (_engine, addr) = spawn_server(1);
    let (mut s, mut r) = connect(addr);
    let timeout = Some(std::time::Duration::from_secs(10));
    s.set_write_timeout(timeout).unwrap();
    r.get_ref().set_read_timeout(timeout).unwrap();
    let mut line = br#"{"op":"ping","pad":""#.to_vec();
    line.resize(line.len() + (8 << 20), b'x');
    line.extend_from_slice(b"\"}\n");
    s.write_all(&line).unwrap();
    let mut resp = String::new();
    r.read_line(&mut resp)
        .expect("an 8 MiB ping is answered within 10 s");
    assert!(resp.contains("\"pong\":true"), "{resp}");
}
