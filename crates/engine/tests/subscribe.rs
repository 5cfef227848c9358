//! End-to-end tests of the streaming subsystem: `subscribe` over real
//! TCP sessions, pushed re-estimates, and the routed relay.
//!
//! Three contracts are pinned here. **Touch discipline**: an update
//! pushes a re-estimate iff it perturbs a conflict component the
//! subscribed query reads — clean-region-only updates push nothing and
//! sample nothing (verified through the `sample`-stage walk counter).
//! **Invalidation ordering**: by the time a pushed frame is readable,
//! the answer cache already serves the new version, so a subscriber
//! reacting with an immediate `answer` sees `"cached":true` at the
//! pushed `db_version`. **Relay byte identity**: a subscriber behind
//! `ocqa route` reads responses and frames byte-for-byte equal to one
//! connected to the equivalent in-process sharded engine.

use ocqa_engine::{
    json, serve_listener, Engine, EngineConfig, MetricsSnapshot, PushSession, RouteProxy,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A blocking NDJSON test client over one TCP connection. Reads are
/// bounded by a socket timeout so a missing push fails the test instead
/// of wedging it.
struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            stream,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.stream, "{line}").unwrap();
        self.stream.flush().unwrap();
    }

    /// The next line the server writes — a response or a pushed frame.
    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read line");
        assert!(n > 0, "server closed the connection");
        line.trim_end().to_string()
    }

    fn request(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

fn spawn_engine(config: EngineConfig) -> String {
    let engine = Engine::new(config);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let _ = serve_listener(engine, listener);
    });
    addr
}

/// Starts `n` single-shard engines behind TCP listeners plus a route
/// proxy over them, itself behind a listener. Returns the proxy address.
fn spawn_routed(n: usize, workers: usize, cache: usize, max_subs: usize) -> String {
    let addrs: Vec<String> = (0..n)
        .map(|_| {
            spawn_engine(EngineConfig {
                workers,
                cache_capacity: cache,
                ..EngineConfig::default()
            })
        })
        .collect();
    let proxy = RouteProxy::connect_with(addrs, 0, max_subs).expect("connect router");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let _ = serve_listener(proxy, listener);
    });
    addr
}

const CREATE: &str = r#"{"op":"create_db","name":"prefs","facts":"R(1,10). R(1,20). S(1,1).","constraints":"R(x,y), R(x,z) -> y = z."}"#;
const SUBSCRIBE: &str = r#"{"op":"subscribe","db":"prefs","query":"(x) <- exists y: R(x,y)","eps":0.1,"delta":0.1,"seed":7}"#;

fn field_u64(line: &str, key: &str) -> u64 {
    json::parse(line)
        .expect("line parses")
        .get(key)
        .and_then(json::Json::as_u64)
        .unwrap_or_else(|| panic!("no {key:?} in {line}"))
}

/// Total `sample`-stage runs across all shards — the walk counter the
/// no-resampling pin reads.
fn sample_runs(control: &mut Client) -> u64 {
    let line = control.request(r#"{"op":"metrics"}"#);
    let v = json::parse(&line).expect("metrics parses");
    let Some(json::Json::Arr(entries)) = v.get("per_shard") else {
        panic!("no per_shard in {line}");
    };
    let idx = ocqa_engine::obs::Stage::ALL
        .iter()
        .position(|s| *s == ocqa_engine::obs::Stage::Sample)
        .unwrap();
    entries
        .iter()
        .map(|e| {
            MetricsSnapshot::from_json(e)
                .expect("snapshot parses")
                .stages[idx]
                .count
        })
        .sum()
}

#[test]
fn pushes_land_only_for_touching_updates() {
    let addr = spawn_engine(EngineConfig {
        workers: 2,
        cache_capacity: 64,
        ..EngineConfig::default()
    });
    let mut control = Client::connect(&addr);
    let mut sub = Client::connect(&addr);

    assert!(control.request(CREATE).contains("\"ok\":true"));
    let resp = sub.request(SUBSCRIBE);
    assert_eq!(resp, r#"{"db":"prefs","ok":true,"shard":0,"sub":1}"#);

    // A conflicting insert touches the subscriber's component: one
    // estimate frame, at the bumped version, with the fixed frame schema.
    assert!(control
        .request(r#"{"op":"insert","db":"prefs","facts":"R(2,30). R(2,31)."}"#)
        .contains("\"ok\":true"));
    let frame = sub.recv();
    assert_eq!(field_u64(&frame, "sub"), 1);
    assert_eq!(field_u64(&frame, "walks"), 150);
    let v1 = field_u64(&frame, "db_version");
    for key in ["\"answers\":", "\"event\":\"estimate\"", "\"plan\":"] {
        assert!(frame.contains(key), "{frame}");
    }
    for absent in ["\"shard\"", "\"cached\""] {
        assert!(!frame.contains(absent), "deployment field leaked: {frame}");
    }

    // A clean-region-only insert (unconstrained relation S): no push,
    // and — the stronger claim — no sampling run at all.
    let walks_before = sample_runs(&mut control);
    assert!(control
        .request(r#"{"op":"insert","db":"prefs","facts":"S(9,9)."}"#)
        .contains("\"ok\":true"));
    assert_eq!(
        sample_runs(&mut control),
        walks_before,
        "clean update must not resample"
    );
    // The next touching update's frame is the *next* line the
    // subscriber reads, and it skips the clean update's version —
    // proving nothing was pushed for it.
    assert!(control
        .request(r#"{"op":"insert","db":"prefs","facts":"R(1,40)."}"#)
        .contains("\"ok\":true"));
    let frame = sub.recv();
    assert_eq!(field_u64(&frame, "db_version"), v1 + 2);
    assert_eq!(field_u64(&frame, "sub"), 1);

    // Unsubscribe is session-scoped and immediate.
    assert_eq!(
        sub.request(r#"{"op":"unsubscribe","db":"prefs","sub":1}"#),
        r#"{"db":"prefs","ok":true,"shard":0,"sub":1,"unsubscribed":true}"#
    );
    assert!(control
        .request(r#"{"op":"insert","db":"prefs","facts":"R(1,41)."}"#)
        .contains("\"ok\":true"));

    // Re-subscribe, then drop the database: the subscriber's next line
    // is the closed frame — no stray estimate from the post-unsubscribe
    // insert ahead of it.
    assert_eq!(field_u64(&sub.request(SUBSCRIBE), "sub"), 2);
    assert!(control
        .request(r#"{"op":"drop_db","name":"prefs"}"#)
        .contains("\"ok\":true"));
    assert_eq!(
        sub.recv(),
        r#"{"db":"prefs","event":"closed","reason":"dropped","sub":2}"#
    );
}

#[test]
fn window_thins_pushes_to_every_nth_touch() {
    let addr = spawn_engine(EngineConfig {
        workers: 1,
        cache_capacity: 16,
        ..EngineConfig::default()
    });
    let mut control = Client::connect(&addr);
    let mut sub = Client::connect(&addr);
    assert!(control.request(CREATE).contains("\"ok\":true"));
    let windowed = r#"{"op":"subscribe","db":"prefs","query":"(x) <- exists y: R(x,y)","eps":0.1,"delta":0.1,"seed":7,"window":2}"#;
    assert_eq!(field_u64(&sub.request(windowed), "sub"), 1);

    // Two touching updates: the window admits only the second.
    assert!(control
        .request(r#"{"op":"insert","db":"prefs","facts":"R(1,30)."}"#)
        .contains("\"ok\":true"));
    assert!(control
        .request(r#"{"op":"insert","db":"prefs","facts":"R(1,31)."}"#)
        .contains("\"ok\":true"));
    let frame = sub.recv();
    assert_eq!(field_u64(&frame, "db_version"), 3, "{frame}");

    // `window: 0` is rejected at parse time.
    let bad = sub
        .request(r#"{"op":"subscribe","db":"prefs","query":"(x) <- exists y: R(x,y)","window":0}"#);
    assert!(
        bad.contains(r#"\"window\" must be a positive integer"#) && bad.contains("\"ok\":false"),
        "{bad}"
    );
}

#[test]
fn pushed_frame_sees_the_already_invalidated_cache() {
    let addr = spawn_engine(EngineConfig {
        workers: 2,
        cache_capacity: 64,
        ..EngineConfig::default()
    });
    let mut control = Client::connect(&addr);
    let mut sub = Client::connect(&addr);
    assert!(control.request(CREATE).contains("\"ok\":true"));
    assert_eq!(field_u64(&sub.request(SUBSCRIBE), "sub"), 1);

    assert!(control
        .request(r#"{"op":"insert","db":"prefs","facts":"R(2,30). R(2,31)."}"#)
        .contains("\"ok\":true"));
    let frame = sub.recv();
    let pushed_version = field_u64(&frame, "db_version");

    // Ordering contract: the cache was floored to the new version
    // *before* the frame was emitted, and the re-estimate itself went
    // through the answer path — so reacting to the push with the same
    // answer parameters is a cache hit at the pushed version, with the
    // pushed tallies.
    let answer = control.request(
        r#"{"op":"answer","db":"prefs","query":"(x) <- exists y: R(x,y)","eps":0.1,"delta":0.1,"seed":7}"#,
    );
    assert!(answer.contains("\"cached\":true"), "{answer}");
    assert_eq!(field_u64(&answer, "db_version"), pushed_version);
    let frame_answers = json::parse(&frame)
        .unwrap()
        .get("answers")
        .unwrap()
        .to_string();
    let answer_answers = json::parse(&answer)
        .unwrap()
        .get("answers")
        .unwrap()
        .to_string();
    assert_eq!(frame_answers, answer_answers, "pushed tally diverged");
}

/// Runs the full streaming script against one endpoint, returning every
/// line read (responses and frames, labeled by connection) in order.
fn streaming_transcript(addr: &str) -> Vec<(&'static str, String)> {
    let mut control = Client::connect(addr);
    let mut sub = Client::connect(addr);
    let mut log: Vec<(&'static str, String)> = Vec::new();
    let ctl = |c: &mut Client, line: &str, log: &mut Vec<(&'static str, String)>| {
        log.push(("control", c.request(line)));
    };
    ctl(&mut control, CREATE, &mut log);
    log.push(("sub", sub.request(SUBSCRIBE)));
    ctl(
        &mut control,
        r#"{"op":"insert","db":"prefs","facts":"R(2,30). R(2,31)."}"#,
        &mut log,
    );
    log.push(("frame", sub.recv()));
    // Clean insert: no frame (the next frame read below must skip it).
    ctl(
        &mut control,
        r#"{"op":"insert","db":"prefs","facts":"S(5,5)."}"#,
        &mut log,
    );
    ctl(
        &mut control,
        r#"{"op":"insert","db":"prefs","facts":"R(1,40)."}"#,
        &mut log,
    );
    log.push(("frame", sub.recv()));
    // Satellite ordering check, routed variant included: the reaction
    // answer is a cache hit in *both* deployments, so it byte-compares.
    ctl(
        &mut control,
        r#"{"op":"answer","db":"prefs","query":"(x) <- exists y: R(x,y)","eps":0.1,"delta":0.1,"seed":7}"#,
        &mut log,
    );
    // Live-subscription stats: normalized below for wall-clock and
    // router-only fields, byte-identical otherwise.
    let stats = control.request(r#"{"op":"stats"}"#);
    let mut v = json::parse(&stats).expect("stats parses");
    v.remove("uptime_ms");
    v.remove("upstreams");
    v.remove("topology");
    log.push(("stats", v.to_string()));
    log.push((
        "sub",
        sub.request(r#"{"op":"unsubscribe","db":"prefs","sub":1}"#),
    ));
    log.push(("sub", sub.request(SUBSCRIBE)));
    ctl(&mut control, r#"{"op":"drop_db","name":"prefs"}"#, &mut log);
    log.push(("frame", sub.recv()));
    // The closed subscription is deregistered everywhere: a late
    // unsubscribe renders the canonical unknown-subscription error.
    log.push((
        "sub",
        sub.request(r#"{"op":"unsubscribe","db":"prefs","sub":2}"#),
    ));
    log
}

#[test]
fn routed_streaming_is_byte_identical_to_in_process_sharding() {
    let routed_addr = spawn_routed(2, 1, 32, 64);
    let direct_addr = spawn_engine(EngineConfig {
        workers: 2,
        cache_capacity: 64,
        shards: 2,
        ..EngineConfig::default()
    });

    let routed = streaming_transcript(&routed_addr);
    let direct = streaming_transcript(&direct_addr);
    assert_eq!(routed.len(), direct.len());
    for (i, ((rl, routed), (dl, direct))) in routed.iter().zip(&direct).enumerate() {
        assert_eq!(rl, dl);
        assert_eq!(
            routed, direct,
            "line {i} ({rl}) diverged\n  routed: {routed}\n  direct: {direct}"
        );
    }
    // The script exercised what it claims: pushes, a cache-hit
    // reaction, live-subscription stats, and the closed frame.
    let frames: Vec<&String> = routed
        .iter()
        .filter(|(l, _)| *l == "frame")
        .map(|(_, f)| f)
        .collect();
    assert_eq!(frames.len(), 3);
    assert!(frames[0].contains("\"event\":\"estimate\""));
    assert!(frames[2].contains("\"reason\":\"dropped\""));
    let stats = &routed.iter().find(|(l, _)| *l == "stats").unwrap().1;
    assert!(stats.contains("\"subscriptions\":1"), "{stats}");
    let cached = &routed[7].1;
    assert!(cached.contains("\"cached\":true"), "{cached}");
}

#[test]
fn session_subscription_limit_rejects_identically_everywhere() {
    let direct_addr = spawn_engine(EngineConfig {
        workers: 1,
        cache_capacity: 16,
        max_subs_per_conn: 2,
        ..EngineConfig::default()
    });
    let routed_addr = spawn_routed(1, 1, 16, 2);

    let run = |addr: &str| {
        let mut c = Client::connect(addr);
        assert!(c.request(CREATE).contains("\"ok\":true"));
        assert_eq!(field_u64(&c.request(SUBSCRIBE), "sub"), 1);
        assert_eq!(field_u64(&c.request(SUBSCRIBE), "sub"), 2);
        let rejected = c.request(SUBSCRIBE);
        assert!(
            rejected.contains("session subscription limit of 2 reached")
                && rejected.contains("\"ok\":false"),
            "{rejected}"
        );
        // Releasing a slot re-admits.
        assert!(c
            .request(r#"{"op":"unsubscribe","db":"prefs","sub":1}"#)
            .contains("\"unsubscribed\":true"));
        assert_eq!(field_u64(&c.request(SUBSCRIBE), "sub"), 3);
        rejected
    };
    assert_eq!(
        run(&direct_addr),
        run(&routed_addr),
        "rejection bytes diverged"
    );
}

#[test]
fn stdio_sessions_reject_subscribe() {
    let engine = Engine::new(EngineConfig::default());
    assert!(engine
        .handle_line(CREATE)
        .to_string()
        .contains("\"ok\":true"));
    let resp = engine.handle_line(SUBSCRIBE).to_string();
    assert!(
        resp.contains("subscribe needs a streaming session") && resp.contains("\"ok\":false"),
        "{resp}"
    );
}

#[test]
fn upstream_death_synthesizes_the_closed_frame() {
    // A real single-shard engine behind the pooled listener, reached
    // through a byte relay that remembers every connection, so the test
    // can sever them all — the in-process stand-in for `kill -9` on the
    // upstream.
    let engine = Engine::new(EngineConfig {
        workers: 1,
        cache_capacity: 16,
        ..EngineConfig::default()
    });
    let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
    let upstream_addr = upstream.local_addr().unwrap();
    std::thread::spawn(move || {
        let _ = ocqa_engine::serve_listener(engine, upstream);
    });
    let relay = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = relay.local_addr().unwrap().to_string();
    let conns: Arc<std::sync::Mutex<Vec<TcpStream>>> = Arc::new(std::sync::Mutex::new(Vec::new()));
    {
        let conns = conns.clone();
        std::thread::spawn(move || {
            for conn in relay.incoming() {
                let Ok(client) = conn else { return };
                let Ok(server) = TcpStream::connect(upstream_addr) else {
                    return;
                };
                let pipes = [
                    (client.try_clone().unwrap(), server.try_clone().unwrap()),
                    (server.try_clone().unwrap(), client.try_clone().unwrap()),
                ];
                conns.lock().unwrap().extend([client, server]);
                for (mut from, mut to) in pipes {
                    std::thread::spawn(move || {
                        let _ = std::io::copy(&mut from, &mut to);
                        let _ = to.shutdown(std::net::Shutdown::Both);
                    });
                }
            }
        });
    }
    let proxy = RouteProxy::connect_with(vec![addr], 0, 64).expect("connect");
    let session = PushSession::new();
    assert!(proxy.handle_line(CREATE).contains("\"ok\":true"));
    let resp = proxy.handle_open_line(SUBSCRIBE, &session);
    assert!(resp.contains("\"sub\":1"), "{resp}");
    assert!(proxy
        .handle_line(r#"{"op":"insert","db":"prefs","facts":"R(2,30). R(2,31)."}"#)
        .contains("\"ok\":true"));
    let frame = pop_timeout(&session);
    assert!(frame.contains("\"event\":\"estimate\""), "{frame}");

    // Sever every upstream socket: the relay must synthesize the
    // structured closed frame instead of leaving the subscriber hanging.
    for stream in conns.lock().unwrap().iter() {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
    let frame = pop_timeout(&session);
    assert_eq!(
        frame,
        r#"{"db":"prefs","event":"closed","reason":"upstream","sub":1}"#
    );
    // The slot was released and the subscription deregistered.
    assert_eq!(session.sub_count(), 0);
    let resp = proxy.handle_open_line(r#"{"op":"unsubscribe","db":"prefs","sub":1}"#, &session);
    assert!(
        resp.contains(r#"no subscription 1 on database \"prefs\" in this session"#),
        "{resp}"
    );
}

/// Bounded `pop_wait` so relay failures surface as assertions.
fn pop_timeout(session: &PushSession) -> String {
    let (tx, rx) = std::sync::mpsc::channel();
    let s = session.clone();
    std::thread::spawn(move || {
        let _ = tx.send(s.pop_wait());
    });
    rx.recv_timeout(Duration::from_secs(30))
        .expect("timed out waiting for a pushed frame")
        .expect("session closed without the expected frame")
}
