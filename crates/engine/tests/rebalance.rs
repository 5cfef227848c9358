//! End-to-end tests of the elastic cluster: live rebalancing (growing
//! the upstream set by snapshot-shipping reassigned databases) and
//! WAL-replicated standby failover.
//!
//! The acceptance bar is the same byte identity the static router is
//! held to, extended across membership changes: answers after a 2→3
//! grow must equal a fresh 3-shard deployment's byte-for-byte, no acked
//! write may be lost while databases move, and a primary killed
//! mid-flight must fail over to a standby that answers bit-identically.

use ocqa_engine::{serve_listener, Engine, EngineConfig, RouteConfig, RouteProxy, Router};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

const WORKERS: usize = 2;
const CACHE: usize = 64;

/// A fresh temp dir that belongs to one test, removed when the test
/// drops it.
struct TempDir(std::path::PathBuf);

impl std::ops::Deref for TempDir {
    type Target = std::path::Path;

    fn deref(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn temp_dir(tag: &str) -> TempDir {
    use std::sync::atomic::AtomicU64;
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ocqa-rebalance-{}-{}-{tag}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    TempDir(dir)
}

/// Starts `n` single-shard engines behind TCP listeners (what
/// `ocqa serve --shards 1 --listen …` runs) and returns their addresses.
fn spawn_upstreams(n: usize) -> Vec<String> {
    (0..n).map(|_| spawn_upstream().1).collect()
}

fn spawn_upstream() -> (Arc<Engine>, String) {
    let engine = Engine::new(EngineConfig {
        workers: WORKERS,
        cache_capacity: CACHE,
        ..EngineConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    let served = engine.clone();
    std::thread::spawn(move || {
        let _ = serve_listener(served, listener);
    });
    (engine, addr)
}

/// The reference a grown cluster is compared against: a fresh in-process
/// engine already partitioned over the final shard count, same per-shard
/// worker and cache budget.
fn reference_engine(shards: usize) -> Arc<Engine> {
    Engine::new(EngineConfig {
        workers: WORKERS * shards,
        cache_capacity: CACHE * shards,
        shards,
        ..EngineConfig::default()
    })
}

fn create_line(name: &str) -> String {
    format!(
        r#"{{"op":"create_db","name":"{name}","facts":"R(1,10). R(1,20). R(2,30). R(2,40). R(3,50).","constraints":"R(x,y), R(x,z) -> y = z."}}"#
    )
}

fn answer_line(name: &str, seed: u64) -> String {
    format!(
        r#"{{"op":"answer","db":"{name}","query":"(y) <- exists x: R(x,y)","eps":0.1,"delta":0.1,"seed":{seed}}}"#
    )
}

#[test]
fn rebalance_grows_cluster_live_under_traffic_with_byte_identical_answers() {
    let addrs = spawn_upstreams(2);
    let proxy = RouteProxy::connect(addrs).expect("connect router");
    assert_eq!(proxy.epoch(), 1, "fresh cluster starts at epoch 1");

    // Enough names that the HRW grow 2→3 reassigns some and keeps some.
    let names = [
        "orders", "users", "events", "billing", "audit", "sessions", "carts", "ledger",
    ];
    for name in names {
        let resp = proxy.handle_line(&create_line(name));
        assert!(resp.contains("\"ok\":true"), "{resp}");
    }
    let expected_moved: HashSet<String> = {
        let grown = Router::new(3);
        names
            .iter()
            .filter(|n| grown.shard_for(n) == 2)
            .map(|n| n.to_string())
            .collect()
    };
    assert!(
        !expected_moved.is_empty() && expected_moved.len() < names.len(),
        "workload must both move and keep databases: {expected_moved:?}"
    );

    // Traffic while the grow runs: inserts of distinct facts (retried on
    // the structured mid-move/stale-epoch rejection until acked) and
    // interleaved answers. Every ack is recorded so the reference can
    // replay exactly the writes the cluster acknowledged.
    let stop = Arc::new(AtomicBool::new(false));
    let acked: Arc<Mutex<Vec<(String, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let traffic = {
        let proxy = proxy.clone();
        let stop = stop.clone();
        let acked = acked.clone();
        std::thread::spawn(move || {
            let mut k = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let name = names[(k as usize) % names.len()];
                let fact = format!("R({}, {})", 1000 + k, 1000 + k);
                let line = format!(r#"{{"op":"insert","db":"{name}","facts":"{fact}."}}"#);
                loop {
                    let resp = proxy.handle_line(&line);
                    if resp.contains("\"ok\":true") {
                        acked.lock().unwrap().push((name.to_string(), fact.clone()));
                        break;
                    }
                    // The only legal refusal mid-grow is the structured
                    // retry (mid-move database or stale pinned epoch).
                    assert!(
                        resp.contains("\"retry\":true"),
                        "insert hard-failed: {resp}"
                    );
                }
                let read = proxy.handle_line(&answer_line(name, k % 5));
                assert!(read.contains("\"answers\":"), "{read}");
                k += 1;
            }
        })
    };

    // Grow 2→3 through the admin op, live.
    let (_new_engine, new_addr) = spawn_upstream();
    let resp = proxy.handle_line(&format!(r#"{{"op":"rebalance","add":"{new_addr}"}}"#));
    assert!(resp.contains("\"ok\":true"), "{resp}");
    stop.store(true, Ordering::SeqCst);
    traffic.join().expect("traffic thread");

    let grown = ocqa_engine::json::parse(&resp).unwrap();
    assert_eq!(
        grown
            .get("shards")
            .and_then(ocqa_engine::json::Json::as_u64),
        Some(3)
    );
    let moved: HashSet<String> = match grown.get("moved") {
        Some(ocqa_engine::json::Json::Arr(names)) => names
            .iter()
            .filter_map(|n| n.as_str().map(str::to_string))
            .collect(),
        other => panic!("no moved list in {other:?}"),
    };
    assert_eq!(
        moved, expected_moved,
        "grow must reassign exactly the HRW losers"
    );
    // Epoch: one bump per committed move plus the final shard-count bump.
    assert_eq!(proxy.epoch(), 1 + moved.len() as u64 + 1);
    assert_eq!(proxy.shards(), 3);

    // A client still pinning the pre-grow epoch gets a structured retry
    // carrying the current one.
    let stale = proxy.handle_line(
        r#"{"op":"answer","db":"orders","query":"(y) <- exists x: R(x,y)","eps":0.1,"delta":0.1,"seed":0,"epoch":1}"#,
    );
    assert!(stale.contains("\"retry\":true"), "{stale}");
    assert!(
        stale.contains(&format!("\"epoch\":{}", proxy.epoch())),
        "{stale}"
    );

    // Zero lost acked writes and byte-identical answers: a fresh
    // 3-shard deployment given the same creates plus exactly the acked
    // inserts must answer every database identically (fresh seeds, so
    // both sides compute cold).
    let reference = reference_engine(3);
    for name in names {
        let resp = reference.handle_line(&create_line(name)).to_string();
        assert!(resp.contains("\"ok\":true"), "{resp}");
    }
    for (name, fact) in acked.lock().unwrap().iter() {
        let line = format!(r#"{{"op":"insert","db":"{name}","facts":"{fact}."}}"#);
        let resp = reference.handle_line(&line).to_string();
        assert!(resp.contains("\"ok\":true"), "{resp}");
    }
    // `db_version`, `cache_hits` and `cache_misses` are shard-local
    // bookkeeping: they count a shard's own create/mutate/lookup
    // interleaving, which legitimately differs between a cluster that
    // *grew into* this placement under traffic and one deployed there
    // fresh. Everything that touches the estimate — the answers, walk
    // counts, plan, serving shard — must match byte-for-byte.
    let normalize = |line: &str| {
        let mut v = ocqa_engine::json::parse(line).expect("answer parses");
        v.remove("cache_hits");
        v.remove("cache_misses");
        v.remove("db_version");
        v.to_string()
    };
    for (i, name) in names.iter().enumerate() {
        let line = answer_line(name, 1000 + i as u64);
        let routed = proxy.handle_line(&line);
        let direct = reference.handle_line(&line).to_string();
        assert_eq!(
            normalize(&routed),
            normalize(&direct),
            "post-grow answer diverged for {name}\n  routed: {routed}\n  direct: {direct}"
        );
        // Placement converged on the pure 3-shard HRW assignment.
        assert_eq!(proxy.shard_of(name), reference.shard_of(name), "{name}");
    }

    // The observability surface reflects the grow: the routed stats
    // carry the topology block, the metrics op the epoch and move count.
    let stats = proxy.handle_line(r#"{"op":"stats"}"#);
    assert!(
        stats.contains(&format!("\"epoch\":{}", proxy.epoch())),
        "{stats}"
    );
    let metrics = proxy.handle_line(r#"{"op":"metrics"}"#);
    assert!(
        metrics.contains(&format!("\"topology_epoch\":{}", proxy.epoch())),
        "{metrics}"
    );
    assert!(
        metrics.contains(&format!("\"rebalance_moves\":{}", moved.len())),
        "{metrics}"
    );
}

#[test]
fn rebalance_refuses_a_non_empty_upstream() {
    let addrs = spawn_upstreams(2);
    let proxy = RouteProxy::connect(addrs).expect("connect router");
    // A prospective member that already serves a database is not a
    // fresh shard — admitting it would shadow existing placements.
    let (_engine, tainted) = spawn_upstream();
    let up = ocqa_engine::Upstream::new(tainted.clone());
    let resp = up.exchange(&create_line("kv")).unwrap();
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let resp = proxy.handle_line(&format!(r#"{{"op":"rebalance","add":"{tainted}"}}"#));
    assert!(resp.contains("\"ok\":false"), "{resp}");
    assert_eq!(proxy.shards(), 2, "failed grow must not change membership");
    assert_eq!(proxy.epoch(), 1);
}

#[test]
fn rebalance_resumes_after_router_restart_without_duplicating_members() {
    // Simulate a grow that crashed after persisting the grown
    // membership but before shipping every database: install databases
    // under a 2-shard layout, then "restart" the router over all three
    // upstreams (the state a crashed router recovers into — persisted
    // topology lists the new member, catalogs still hold the pre-grow
    // placement).
    let two = spawn_upstreams(2);
    let (_new_engine, new_addr) = spawn_upstream();
    let names = [
        "orders", "users", "events", "billing", "audit", "sessions", "carts", "ledger",
    ];
    {
        let staging = RouteProxy::connect(two.clone()).expect("connect 2-shard router");
        for name in names {
            let resp = staging.handle_line(&create_line(name));
            assert!(resp.contains("\"ok\":true"), "{resp}");
        }
    }
    let mut addrs = two;
    addrs.push(new_addr.clone());
    let proxy = RouteProxy::connect(addrs).expect("restart router over grown membership");
    assert_eq!(proxy.shards(), 3);

    let stranded: HashSet<String> = {
        let grown = Router::new(3);
        names
            .iter()
            .filter(|n| grown.shard_for(n) == 2)
            .map(|n| n.to_string())
            .collect()
    };
    assert!(!stranded.is_empty(), "workload must leave stranded names");

    // Re-issuing the grow with the member's address resumes: the
    // stranded tail ships, and no duplicate slot is registered.
    let standby_for_new = "127.0.0.1:1"; // recorded only, never dialed
    let resp = proxy.handle_line(&format!(
        r#"{{"op":"rebalance","add":"{new_addr}","standby":"{standby_for_new}"}}"#
    ));
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let resumed = ocqa_engine::json::parse(&resp).unwrap();
    assert_eq!(
        resumed
            .get("shards")
            .and_then(ocqa_engine::json::Json::as_u64),
        Some(3),
        "resume must not add a fourth member: {resp}"
    );
    let moved: HashSet<String> = match resumed.get("moved") {
        Some(ocqa_engine::json::Json::Arr(names)) => names
            .iter()
            .filter_map(|n| n.as_str().map(str::to_string))
            .collect(),
        other => panic!("no moved list in {other:?}"),
    };
    assert_eq!(
        moved, stranded,
        "resume must ship exactly the stranded tail"
    );
    assert_eq!(proxy.shards(), 3);
    assert_eq!(proxy.upstream_addrs().len(), 3, "no duplicate slot");
    // The resumed member adopted the provided standby (it was None).
    let stats = proxy.handle_line(r#"{"op":"stats"}"#);
    assert!(
        stats.contains(&format!("\"standby\":\"{standby_for_new}\"")),
        "{stats}"
    );
    // A conflicting standby on a later re-issue is refused, not
    // silently ignored.
    let resp = proxy.handle_line(&format!(
        r#"{{"op":"rebalance","add":"{new_addr}","standby":"127.0.0.1:2"}}"#
    ));
    assert!(resp.contains("\"ok\":false"), "{resp}");
    assert!(resp.contains("standby"), "{resp}");

    // Re-issuing with a fully settled member is a no-op — same epoch,
    // nothing moved, membership unchanged.
    let epoch = proxy.epoch();
    let resp = proxy.handle_line(&format!(r#"{{"op":"rebalance","add":"{new_addr}"}}"#));
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(resp.contains("\"moved\":[]"), "{resp}");
    assert_eq!(
        proxy.epoch(),
        epoch,
        "a no-op resume must not bump the epoch"
    );
    assert_eq!(proxy.shards(), 3);

    // The finished placement answers byte-identically to a fresh
    // 3-shard deployment given the same creates.
    let reference = reference_engine(3);
    for name in names {
        let resp = reference.handle_line(&create_line(name)).to_string();
        assert!(resp.contains("\"ok\":true"), "{resp}");
    }
    // `db_version` is a shard-local allocation counter: it reflects the
    // order a shard first saw each database, which differs between a
    // cluster that grew into this placement and one deployed fresh —
    // the snapshot preserves the *source* shard's numbering. Everything
    // touching the estimate must match byte-for-byte.
    let normalize = |line: &str| {
        let mut v = ocqa_engine::json::parse(line).expect("answer parses");
        v.remove("db_version");
        v.to_string()
    };
    for (i, name) in names.iter().enumerate() {
        let line = answer_line(name, 2000 + i as u64);
        let routed = proxy.handle_line(&line);
        let direct = reference.handle_line(&line).to_string();
        assert_eq!(
            normalize(&routed),
            normalize(&direct),
            "post-resume answer diverged for {name}\n  routed: {routed}\n  direct: {direct}"
        );
        assert_eq!(proxy.shard_of(name), reference.shard_of(name), "{name}");
    }
}

#[test]
fn in_process_engine_refuses_the_rebalance_op() {
    let engine = Engine::new(EngineConfig::default());
    let resp = engine
        .handle_line(r#"{"op":"rebalance","add":"127.0.0.1:9"}"#)
        .to_string();
    assert!(resp.contains("\"ok\":false"), "{resp}");
    assert!(resp.contains("router op"), "{resp}");
}

/// A single-shard upstream server that can be killed abruptly:
/// `kill()` severs every established connection and stops the listener,
/// exactly what a `kill -9`'d `ocqa serve` looks like from the router.
struct KillableUpstream {
    addr: String,
    kill: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
}

impl KillableUpstream {
    fn spawn(engine: Arc<Engine>) -> KillableUpstream {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap().to_string();
        let kill = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let kill = kill.clone();
            let conns = conns.clone();
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if kill.load(Ordering::SeqCst) {
                        return; // drops the listener: no new dials succeed
                    }
                    let Ok(stream) = conn else { return };
                    conns.lock().unwrap().push(stream.try_clone().unwrap());
                    let engine = engine.clone();
                    std::thread::spawn(move || {
                        let mut reader = BufReader::new(stream.try_clone().unwrap());
                        let mut stream = stream;
                        let mut line = String::new();
                        loop {
                            line.clear();
                            match reader.read_line(&mut line) {
                                Ok(0) | Err(_) => return,
                                Ok(_) => {}
                            }
                            if writeln!(stream, "{}", engine.handle_line(line.trim_end())).is_err()
                            {
                                return;
                            }
                        }
                    });
                }
            });
        }
        KillableUpstream { addr, kill, conns }
    }

    fn kill(&self) {
        self.kill.store(true, Ordering::SeqCst);
        for conn in self.conns.lock().unwrap().iter() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        // Unblock the accept loop so it observes the flag and drops the
        // listener, then give it a beat — afterwards every dial fails.
        let _ = TcpStream::connect(&self.addr);
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

#[test]
fn killed_primary_fails_over_to_wal_replicated_standby_bit_identically() {
    let dir = temp_dir("failover");
    let topology_path = dir.join("topology.json");

    // The standby: an ordinary serve process. The primary replicates
    // every acked mutation to it synchronously before responding.
    let (_standby_engine, standby_addr) = spawn_upstream();
    let primary_engine = Engine::new(EngineConfig {
        workers: WORKERS,
        cache_capacity: CACHE,
        ..EngineConfig::default()
    });
    primary_engine.attach_replica(&standby_addr);
    let primary = KillableUpstream::spawn(primary_engine);

    let proxy = RouteProxy::connect_cfg(RouteConfig {
        upstreams: vec![primary.addr.clone()],
        standbys: vec![Some(standby_addr.clone())],
        slow_ms: 0,
        max_subs: 64,
        probe_ms: 0, // probing is driven by hand below, deterministically
        topology_path: Some(topology_path.clone()),
    })
    .expect("connect router");

    // Acked writes through the primary: a create and an insert, both
    // replicated before their acks. Then a cold answer — the bytes the
    // standby must reproduce.
    let resp = proxy.handle_line(&create_line("kv"));
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let resp = proxy.handle_line(r#"{"op":"insert","db":"kv","facts":"R(7, 70)."}"#);
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let first = proxy.handle_line(&answer_line("kv", 7));
    assert!(first.contains("\"answers\":"), "{first}");
    let metrics = proxy.handle_line(r#"{"op":"metrics"}"#);
    assert!(metrics.contains("\"replication_lag\":0"), "{metrics}");

    primary.kill();

    // Drive the probe sweep: FAILOVER_AFTER consecutive failures, then
    // the standby takes the slot at a new epoch.
    let mut fails = Vec::new();
    for sweep in 1..=ocqa_engine::FAILOVER_AFTER {
        proxy.probe_once(&mut fails);
        if sweep < ocqa_engine::FAILOVER_AFTER {
            assert_eq!(proxy.epoch(), 1, "failed over after only {sweep} probes");
        }
    }
    assert_eq!(proxy.epoch(), 2, "failover must bump the epoch");
    assert_eq!(proxy.upstream_addrs(), vec![standby_addr.clone()]);

    // The promoted standby answers byte-identically: same facts (no
    // acked write lost), same seed, cold on both sides.
    let failed_over = proxy.handle_line(&answer_line("kv", 7));
    assert_eq!(first, failed_over, "standby diverged from the dead primary");
    // And both match a fresh in-process engine given the same history —
    // replication preserved determinism, not just availability.
    let reference = reference_engine(1);
    let resp = reference.handle_line(&create_line("kv")).to_string();
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let resp = reference
        .handle_line(r#"{"op":"insert","db":"kv","facts":"R(7, 70)."}"#)
        .to_string();
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert_eq!(
        first,
        reference.handle_line(&answer_line("kv", 7)).to_string()
    );

    // Clients pinning the pre-failover epoch get the structured retry.
    let stale = proxy.handle_line(
        r#"{"op":"answer","db":"kv","query":"(y) <- exists x: R(x,y)","eps":0.1,"delta":0.1,"seed":7,"epoch":1}"#,
    );
    assert!(stale.contains("\"retry\":true"), "{stale}");
    assert!(stale.contains("\"epoch\":2"), "{stale}");

    // The failover persisted: a router restarted with the *stale* CLI
    // flags resumes from the topology file, pointing at the standby.
    let raw = std::fs::read_to_string(&topology_path).expect("topology file");
    assert!(raw.contains(&standby_addr), "{raw}");
    assert!(raw.contains("\"epoch\":2"), "{raw}");
    let resumed = RouteProxy::connect_cfg(RouteConfig {
        upstreams: vec![primary.addr.clone()], // dead — the file wins
        standbys: vec![None],
        slow_ms: 0,
        max_subs: 64,
        probe_ms: 0,
        topology_path: Some(topology_path),
    })
    .expect("resume from topology file");
    assert_eq!(resumed.epoch(), 2);
    assert_eq!(resumed.upstream_addrs(), vec![standby_addr]);
    // Same standby engine serving: this re-ask hits its cache.
    let resumed_answer = resumed.handle_line(&answer_line("kv", 7));
    assert!(
        resumed_answer.contains("\"cached\":true"),
        "{resumed_answer}"
    );
}

#[test]
fn failover_is_refused_for_a_standby_that_detached_mid_stream() {
    // The standby dies mid-stream: the primary detaches it, keeps
    // acking, and accrues replication_lag. When the primary later dies
    // too, the router must NOT promote the stale standby — it missed
    // acked writes.
    let standby_engine = Engine::new(EngineConfig {
        workers: WORKERS,
        cache_capacity: CACHE,
        ..EngineConfig::default()
    });
    let standby = KillableUpstream::spawn(standby_engine);
    let primary_engine = Engine::new(EngineConfig {
        workers: WORKERS,
        cache_capacity: CACHE,
        ..EngineConfig::default()
    });
    primary_engine.attach_replica(&standby.addr);
    let primary = KillableUpstream::spawn(primary_engine);

    let proxy = RouteProxy::connect_cfg(RouteConfig {
        upstreams: vec![primary.addr.clone()],
        standbys: vec![Some(standby.addr.clone())],
        slow_ms: 0,
        max_subs: 64,
        probe_ms: 0, // probing driven by hand, deterministically
        topology_path: None,
    })
    .expect("connect router");

    // Replicated while the standby lives…
    let resp = proxy.handle_line(&create_line("kv"));
    assert!(resp.contains("\"ok\":true"), "{resp}");
    // …then the standby dies and an acked insert goes unreplicated:
    // the primary detaches the standby and counts the lag.
    standby.kill();
    let resp = proxy.handle_line(r#"{"op":"insert","db":"kv","facts":"R(7, 70)."}"#);
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let stats = proxy.handle_line(r#"{"op":"stats"}"#);
    assert!(stats.contains("\"replication_lag\":1"), "{stats}");

    // A probe sweep while the primary still lives records its reported
    // lag on the router side.
    let mut fails = Vec::new();
    proxy.probe_once(&mut fails);
    assert_eq!(proxy.epoch(), 1);

    // Now the primary dies too. Probe to the failover threshold: the
    // promotion must be refused — the last observed lag was non-zero.
    primary.kill();
    for _ in 0..ocqa_engine::FAILOVER_AFTER + 1 {
        proxy.probe_once(&mut fails);
    }
    assert_eq!(proxy.epoch(), 1, "a diverged standby must not be promoted");
    assert_eq!(proxy.upstream_addrs(), vec![primary.addr.clone()]);
    let err = proxy.fail_over(0).expect_err("promotion must be refused");
    let msg = err.to_string();
    assert!(msg.contains("replication_lag 1"), "{msg}");
    assert!(msg.contains("missed acked writes"), "{msg}");
}
