//! The four workloads: deployment, set-up, the measured window, output
//! checks and the per-workload legs of the traced run.
//!
//! Load model, all workloads: clients are applications that wait for
//! each reply, so the loop is closed; with at most two connections on a
//! two-core box no backlog can form, so an open loop would measure the
//! same thing and is left out.

use crate::client::Conn;
use crate::drivers::{field_u64, observe_answers, parse_ok, Driver, MixedDriver, WRITE_POOL};
use crate::inputs;
use crate::live::{set_up, window, Live, Recorder};
use crate::probes::{self, Accuracy};
use crate::proc::Server;
use crate::report::Metrics;
use crate::snapshot::{server_side, Snapshot};
use crate::stats::{max, median, quantile};
use crate::trace::{self, Span, Tracer};
use ocqa_engine::json::{self, Json};
use ocqa_engine::{decode_image, Engine, EngineConfig};
use ocqa_logic::parser;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const WORKLOADS: [Kind; 4] = [
    Kind::HotRead,
    Kind::ColdWalk,
    Kind::DurableWrite,
    Kind::RoutedMixed,
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    HotRead,
    ColdWalk,
    DurableWrite,
    RoutedMixed,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::HotRead => "hot_read",
            Kind::ColdWalk => "cold_walk",
            Kind::DurableWrite => "durable_write",
            Kind::RoutedMixed => "routed_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        WORKLOADS.into_iter().find(|k| k.name() == name)
    }
}

pub struct RunOpts {
    pub kind: Kind,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
    /// Times the deployment is set up; `setup_s` is their median.
    pub setups: usize,
    pub ocqa: PathBuf,
    /// Scratch directory of this run (data directories); the caller
    /// removes it afterwards.
    pub dir: PathBuf,
    /// Where the trace file goes.
    pub out_dir: PathBuf,
}

pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

#[derive(Default, Clone, Copy)]
pub struct Counts {
    pub attempted: u64,
    pub failed: u64,
}

impl Counts {
    pub fn add(&mut self, other: Counts) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

pub struct Outcome {
    pub metrics: Metrics,
    pub checks: Vec<Check>,
    /// Operations attempted and failed per phase of the run.
    pub phases: Vec<(&'static str, Counts)>,
    /// The arguments of every server process of the measured deployment.
    pub server_flags: Vec<Vec<String>>,
    /// The first few failures, verbatim.
    pub errors: Vec<String>,
    pub untraced_s: f64,
    pub traced_s: f64,
}

/// Share of the window the traced run spends with tracing off, to
/// price the tracing itself.
const UNTRACED_SHARE: f64 = 0.4;

fn check(checks: &mut Vec<Check>, name: &'static str, ok: bool, detail: String) {
    checks.push(Check { name, ok, detail });
}

/// The in-process replica the traced run replays requests against:
/// same engine settings as the servers, same databases, a store of its
/// own where the workload's servers have one.
fn replica(opts: &RunOpts, setup_lines: &[String]) -> Result<Arc<Engine>, String> {
    let config = EngineConfig {
        workers: 2,
        cache_capacity: 1024,
        ..EngineConfig::default()
    };
    let engine = match opts.kind {
        Kind::HotRead | Kind::ColdWalk => Engine::new(config),
        Kind::DurableWrite | Kind::RoutedMixed => {
            let backend = ocqa_store::DiskBackend::open(&opts.dir.join("replica"))
                .map_err(|e| format!("replica store: {e}"))?;
            Engine::with_backend(config, Arc::new(backend)).map_err(|e| e.to_string())?
        }
    };
    for line in setup_lines {
        let reply = engine.handle_line(line).to_string();
        if !reply.contains("\"ok\":true") {
            return Err(format!("replica refused {line:?}: {reply}"));
        }
    }
    Ok(engine)
}

/// `n` timed exchanges of one line; the median, in milliseconds.
fn repeat_ms(conn: &mut Conn, line: &str, n: usize) -> Result<f64, String> {
    let mut ms = Vec::with_capacity(n);
    for _ in 0..n {
        let (reply, took) = conn.exchange(line)?;
        if !reply.contains("\"ok\":true") {
            return Err(format!("probe request refused: {reply}"));
        }
        ms.push(took.as_secs_f64() * 1e3);
    }
    Ok(median(&ms))
}

/// Feeds the answers set-up received to the accuracy guard. They were
/// computed on freshly installed instances, whose exact probabilities
/// are known: pair survival for key conflicts, a full exploration for
/// the small preference tournaments.
fn warm_accuracy(live: &Live, exact_conflict: f64, accuracy: &mut Accuracy) -> Result<(), String> {
    let mut explored = std::collections::BTreeMap::new();
    for (db, reply) in &live.warm_answers {
        let v = parse_ok(reply)?;
        if !db.conflict_keys.is_empty() {
            observe_answers(&v, db.exact_of(exact_conflict), accuracy)?;
            continue;
        }
        let exact = explored
            .entry(&db.name)
            .or_insert_with(|| probes::exact_answers(db));
        let exact_of = |key| {
            let tuple = [ocqa_data::Constant::int(key)];
            exact
                .iter()
                .find(|(t, _)| t[..] == tuple)
                .map_or(0.0, |(_, p)| *p)
        };
        observe_answers(&v, exact_of, accuracy)?;
    }
    Ok(())
}

/// The client's view of the untraced leg: the end-to-end metrics, their
/// diagnostics, and the answer / write split where a workload has both.
fn client_metrics(m: &mut Metrics, untraced: &Recorder, took_s: f64) {
    let ok_untraced = untraced.ops.attempted - untraced.ops.failed;
    let all_ms = untraced.all_ms();
    let n = all_ms.len() as u64;
    m.put("rps", "ops/s", ok_untraced as f64 / took_s, ok_untraced);
    m.put("op_p50_ms", "ms", median(&all_ms), n);
    m.put("op_p95_ms", "ms", quantile(&all_ms, 0.95), n);
    m.put("client.op_p99_ms", "ms", quantile(&all_ms, 0.99), n);
    m.put("client.op_max_ms", "ms", max(&all_ms), n);
    for (kind, ms) in [
        ("answer", &untraced.answers_ms),
        ("write", &untraced.writes_ms),
    ] {
        if ms.is_empty() {
            continue;
        }
        let n = ms.len() as u64;
        m.put(&format!("client.{kind}_p50_ms"), "ms", median(ms), n);
        m.put(
            &format!("client.{kind}_p95_ms"),
            "ms",
            quantile(ms, 0.95),
            n,
        );
        m.put(
            &format!("client.{kind}_p99_ms"),
            "ms",
            quantile(ms, 0.99),
            n,
        );
        m.put(&format!("client.{kind}_max_ms"), "ms", max(ms), n);
    }
}

/// The isolation predictions: which layers a workload must leave idle.
fn isolation_checks(kind: Kind, m: &Metrics, walks: f64, checks: &mut Vec<Check>) {
    let hit_share = m.value("engine.cache.hit_share");
    match kind {
        Kind::HotRead => {
            check(
                checks,
                "hot_read runs no walks",
                walks == 0.0,
                format!("{walks} walks in the window"),
            );
            check(
                checks,
                "hot_read always hits the cache",
                hit_share == 1.0,
                format!("hit share {hit_share}"),
            );
        }
        Kind::ColdWalk => {
            check(
                checks,
                "cold_walk never hits the cache",
                hit_share == 0.0,
                format!("hit share {hit_share}"),
            );
            let (sample, p50) = (m.value("engine.stage.sample_ms"), m.value("op_p50_ms"));
            check(
                checks,
                "cold_walk spends at least 60% of an answer sampling",
                sample >= 0.6 * p50,
                format!("sample stage {sample:.1} ms of p50 {p50:.1} ms"),
            );
        }
        Kind::DurableWrite => {
            check(
                checks,
                "durable_write runs no walks",
                walks == 0.0,
                format!("{walks} walks in the window"),
            );
        }
        Kind::RoutedMixed => {}
    }
}

pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.dir).map_err(|e| format!("{}: {e}", opts.dir.display()))?;
    let mut m = Metrics::default();
    let mut checks = Vec::new();
    let mut phases = Vec::new();
    let exact_conflict = probes::exact_pair_survival();

    // Set up several times; the last deployment is the one measured.
    // `setup_s` is end-to-end, and those come from untraced runs only,
    // so a traced run sets up once.
    let mut setup_s = Vec::new();
    let mut spawn_ms = Vec::new();
    let mut live = None;
    let setups = if opts.trace { 1 } else { opts.setups.max(1) };
    for rep in 0..setups {
        drop(live.take());
        let dir = opts.dir.join(format!("setup{rep}"));
        let fresh = set_up(opts, &dir, true, exact_conflict)?;
        setup_s.push(fresh.seconds);
        spawn_ms.extend(fresh.deployment.servers.iter().map(|s| s.spawn_ms));
        live = Some(fresh);
    }
    let mut live = live.expect("at least one set-up");
    m.put("setup_s", "s", median(&setup_s), setup_s.len() as u64);
    m.put(
        "cli.spawn_ms",
        "ms",
        median(&spawn_ms),
        spawn_ms.len() as u64,
    );
    let setup_ops = Counts {
        attempted: live.setup_lines.len() as u64,
        failed: 0,
    };
    phases.push(("setup", setup_ops));
    let server_flags = live
        .deployment
        .servers
        .iter()
        .map(|s| s.args.clone())
        .collect();

    let origin = Instant::now();
    let replica_engine = match opts.trace {
        true => Some(replica(opts, &live.setup_lines)?),
        false => None,
    };
    let mut tracers: Option<Vec<Tracer>> = replica_engine.as_ref().map(|engine| {
        let lanes = live.drivers.len() as u64;
        (0..lanes)
            .map(|lane| Tracer::new(engine.clone(), lane, lanes))
            .collect()
    });

    // The subscriber only listens; it stamps each pushed frame on
    // arrival and is ended by shutting its socket down.
    let listener = match live.subscriber.take() {
        Some(mut b) => {
            let socket = b.socket()?;
            let thread = std::thread::spawn(move || {
                let mut frames = Vec::new();
                while let Ok(frame) = b.read_line() {
                    frames.push((Instant::now(), frame));
                }
                frames
            });
            Some((socket, thread))
        }
        None => None,
    };

    let before = Snapshot::take(&live.deployment)?;
    let untraced_s = if opts.trace {
        opts.seconds * UNTRACED_SHARE
    } else {
        opts.seconds
    };
    let (untraced, untraced_took) = window(&mut live, untraced_s, None);
    let (traced, traced_took) = match tracers.as_mut() {
        Some(ts) => {
            ts.iter_mut().for_each(Tracer::restart);
            window(&mut live, opts.seconds - untraced_s, Some(ts))
        }
        None => (Recorder::default(), 0.0),
    };
    let after = Snapshot::take(&live.deployment)?;

    client_metrics(&mut m, &untraced, untraced_took);
    phases.push(("untraced", untraced.ops));
    if opts.trace {
        phases.push(("traced", traced.ops));
    }
    let mut window_ops = untraced.ops;
    window_ops.add(traced.ops);
    let ok_ops = window_ops.attempted - window_ops.failed;
    let mut errors = untraced.errors.clone();
    errors.extend(traced.errors.iter().cloned());
    check(
        &mut checks,
        "every reply verified",
        window_ops.failed == 0 && window_ops.attempted > 0,
        format!(
            "{} of {} operations failed",
            window_ops.failed, window_ops.attempted
        ),
    );

    let fact_bytes = untraced.fact_bytes + traced.fact_bytes;
    let walks = server_side(&mut m, &before, &after, ok_ops, fact_bytes);
    m.put(
        "cli.rss_peak_mb",
        "MiB",
        live.deployment
            .servers
            .iter()
            .map(Server::rss_peak_mb)
            .sum(),
        live.deployment.servers.len() as u64,
    );

    isolation_checks(opts.kind, &m, walks, &mut checks);

    // routed_mixed: what B received against what A wrote.
    if let Some((socket, thread)) = listener {
        // Give the last push a moment to arrive, then end the listener.
        std::thread::sleep(Duration::from_millis(200));
        let _ = socket.shutdown(std::net::Shutdown::Both);
        let frames = thread.join().map_err(|_| "subscriber thread panicked")?;
        let Driver::Mixed(d) = &live.drivers[0] else {
            return Err("subscriber without a routed_mixed driver".into());
        };
        pushes(&mut m, &mut checks, d, &frames)?;
        m.put(
            "client.direct_checks",
            "count",
            d.direct_checks as f64,
            d.answers,
        );
    } else {
        m.put("engine.subscribe.pushes_per_dirty_write", "count", 0.0, 0);
        m.put("engine.subscribe.pushes_per_clean_write", "count", 0.0, 0);
    }

    // The accuracy guard: every estimate whose exact value is known.
    let mut accuracy = Accuracy::new();
    warm_accuracy(&live, exact_conflict, &mut accuracy)?;
    for driver in &live.drivers {
        if let Driver::Cold(d) = driver {
            accuracy.absorb(&d.accuracy);
        }
    }

    // The traced run's own legs.
    if let (Some(ts), Some(engine)) = (tracers.take(), replica_engine) {
        let mut spans: Vec<Span> = Vec::new();
        let mut dropped = 0;
        for t in ts {
            dropped += t.dropped;
            spans.extend(t.spans);
        }
        let post = traced_legs(
            opts,
            &mut live,
            &engine,
            &mut m,
            &spans,
            &traced,
            exact_conflict,
        )?;
        phases.push(("post", post));
        accuracy.absorb(&probes::run(opts.seed, exact_conflict, &opts.dir, &mut m)?);
        trace::write_file(
            &opts
                .out_dir
                .join(format!("trace-{}.json", opts.kind.name())),
            opts.kind.name(),
            opts.seed,
            origin,
            &spans,
            dropped,
        )?;
    }
    m.put(
        "core.outside_eps_share",
        "share",
        accuracy.share(),
        accuracy.estimates,
    );
    check(
        &mut checks,
        "estimates outside ε stay within δ",
        accuracy.share() <= inputs::DELTA,
        format!("{} of {} estimates", accuracy.outside, accuracy.estimates),
    );

    // durable_write: kill -9 the primary and look for every acked write.
    if opts.kind == Kind::DurableWrite {
        crash_and_recover(opts, &mut live, &mut m, &mut checks)?;
    } else {
        m.put("store.acked_lost", "count", 0.0, 0);
    }

    Ok(Outcome {
        metrics: m,
        checks,
        phases,
        server_flags,
        errors,
        untraced_s: untraced_took,
        traced_s: traced_took,
    })
}

/// Matches the frames B received to the writes A had acknowledged on
/// the subscribed databases, by database and version.
fn pushes(
    m: &mut Metrics,
    checks: &mut Vec<Check>,
    d: &MixedDriver,
    frames: &[(Instant, String)],
) -> Result<(), String> {
    let mut received = Vec::new();
    for (at, frame) in frames {
        let v = json::parse(frame).map_err(|e| format!("malformed pushed frame: {e}"))?;
        if v.get("event").and_then(Json::as_str) != Some("estimate") {
            return Err(format!("unexpected frame on the subscriber: {frame}"));
        }
        let db = v
            .get("db")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        received.push((db, field_u64(&v, "db_version")?, *at));
    }
    let (mut dirty, mut clean, mut dirty_pushes, mut clean_pushes) = (0u64, 0u64, 0u64, 0u64);
    let mut latency_ms = Vec::new();
    for sent in &d.sends {
        let name = &d.dbs[sent.db].input.name;
        let matched: Vec<_> = received
            .iter()
            .filter(|(db, version, _)| db == name && *version == sent.version)
            .collect();
        if sent.dirty {
            dirty += 1;
            dirty_pushes += matched.len() as u64;
            if let Some((_, _, at)) = matched.first() {
                latency_ms.push(at.saturating_duration_since(sent.sent).as_secs_f64() * 1e3);
            }
        } else {
            clean += 1;
            clean_pushes += matched.len() as u64;
        }
    }
    let per = |pushes: u64, writes: u64| {
        if writes == 0 {
            0.0
        } else {
            pushes as f64 / writes as f64
        }
    };
    m.put(
        "engine.subscribe.pushes_per_dirty_write",
        "count",
        per(dirty_pushes, dirty),
        dirty,
    );
    m.put(
        "engine.subscribe.pushes_per_clean_write",
        "count",
        per(clean_pushes, clean),
        clean,
    );
    if !latency_ms.is_empty() {
        m.put(
            "client.push_p50_ms",
            "ms",
            median(&latency_ms),
            latency_ms.len() as u64,
        );
    }
    check(
        checks,
        "one push per dirty write, none per clean write",
        dirty_pushes == dirty && clean_pushes == 0 && received.len() as u64 == dirty_pushes,
        format!(
            "{dirty_pushes} pushes for {dirty} dirty writes, {clean_pushes} for {clean} clean, {} frames",
            received.len()
        ),
    );
    Ok(())
}

/// What only the traced run measures against the live deployment:
/// what the spans say, transport, idle CPU, the router hop and the
/// cost of the standby. Returns the operations these legs sent.
fn traced_legs(
    opts: &RunOpts,
    live: &mut Live,
    engine: &Engine,
    m: &mut Metrics,
    spans: &[Span],
    traced: &Recorder,
    exact_conflict: f64,
) -> Result<Counts, String> {
    let mut ops = Counts::default();
    let parse_us = trace::durations(spans, "engine.proto.parse");
    let render_us = trace::durations(spans, "engine.proto.render");
    m.put(
        "engine.proto.parse_us",
        "us",
        median(&parse_us),
        parse_us.len() as u64,
    );
    m.put(
        "engine.proto.render_us",
        "us",
        median(&render_us),
        render_us.len() as u64,
    );
    for name in [
        "engine.handle.answer_hit",
        "engine.handle.answer_miss",
        "engine.handle.update",
    ] {
        let us = trace::durations(spans, name);
        if !us.is_empty() {
            m.put(&format!("{name}_us"), "us", median(&us), us.len() as u64);
        }
    }
    let p50 = m.value("op_p50_ms");
    let traced_ms = traced.all_ms();
    m.put(
        "trace.overhead_share",
        "share",
        median(&traced_ms) / p50 - 1.0,
        traced_ms.len() as u64,
    );
    // What no layer accounts for: the client's median minus the
    // server's own time per operation, parsing and rendering.
    let attributed_ms =
        (m.value("engine.op.mean_us") + median(&parse_us) + median(&render_us)) / 1e3;
    m.put(
        "client.unattributed_share",
        "share",
        (p50 - attributed_ms) / p50,
        traced_ms.len() as u64,
    );

    // Transport: one cached answer over the socket against the same
    // line handled in process.
    let line = inputs::answer_line(&live.probe_db, 424_242, None);
    live.conns[0].call(&line)?;
    let socket_ms = repeat_ms(&mut live.conns[0], &line, 20)?;
    ops.attempted += 21;
    engine.handle_line(&line);
    let in_process_us: Vec<f64> = (0..200)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(engine.handle_line(&line).to_string());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.put(
        "engine.server.transport_ms",
        "ms",
        socket_ms - median(&in_process_us) / 1e3,
        20,
    );
    m.put(
        "engine.handle_line.cached_us",
        "us",
        median(&in_process_us),
        200,
    );

    // Idle CPU: every client connection parked, nothing in flight.
    let (cpu, idle) = (live.deployment.cpu_ms(), Instant::now());
    std::thread::sleep(Duration::from_secs(1));
    let busy = live.deployment.cpu_ms() - cpu;
    m.put(
        "engine.server.idle_cpu_pct",
        "%",
        busy / (idle.elapsed().as_secs_f64() * 1e3) * 100.0,
        1,
    );

    match &mut live.drivers[0] {
        // The router hop: the same cached answer asked of the owning
        // shard directly.
        Driver::Mixed(d) => {
            let shard = d.dbs[0].shard;
            let direct_ms = repeat_ms(&mut d.direct[shard], &line, 20)?;
            ops.attempted += 20;
            m.put("engine.frontdoor.hop_ms", "ms", socket_ms - direct_ms, 20);
        }
        // The standby: the same writes against a primary running alone.
        Driver::Durable(_) => {
            let with_standby = m.value("client.write_p50_ms");
            let mut solo = set_up(opts, &opts.dir.join("solo"), false, exact_conflict)?;
            let (alone, _) = window(&mut solo, opts.seconds * 0.25, None);
            ops.add(alone.ops);
            m.put(
                "engine.replicate.ms",
                "ms",
                with_standby - median(&alone.writes_ms),
                alone.writes_ms.len() as u64,
            );
        }
        _ => {}
    }
    Ok(ops)
}

/// `kill -9` on the primary, restart on the same directory, and every
/// acknowledged write must be there — on the standby too.
fn crash_and_recover(
    opts: &RunOpts,
    live: &mut Live,
    m: &mut Metrics,
    checks: &mut Vec<Check>,
) -> Result<(), String> {
    let dbs = inputs::durable_write_dbs(opts.seed, WRITE_POOL);
    let mut expected = Vec::new();
    for (db, driver) in dbs.iter().zip(&live.drivers) {
        let Driver::Durable(d) = driver else {
            return Err("durable_write without its driver".into());
        };
        let mut text = db.facts.clone();
        for (fact, _) in d.pool.iter().zip(&d.live).filter(|(_, live)| **live) {
            text.push(' ');
            text.push_str(fact);
        }
        let facts: BTreeSet<_> = parser::parse_facts(&text)
            .map_err(|e| e.to_string())?
            .into_iter()
            .collect();
        expected.push((db.name.clone(), facts));
    }
    // Facts that differ, either way, between what was acknowledged and
    // what the server at `addr` holds.
    let lost_on = |addr: &str| -> Result<u64, String> {
        let mut conn = Conn::connect(addr)?;
        let mut lost = 0;
        for (name, facts) in &expected {
            let fetch = Json::obj([("op", "fetch_snapshot".into()), ("db", name.clone().into())]);
            let reply = conn.call(&fetch.to_string())?;
            let image = reply
                .get("image")
                .and_then(Json::as_str)
                .ok_or("snapshot without image")?;
            let stored = decode_image(image)
                .map_err(|e| e.to_string())?
                .db
                .canonical_facts();
            lost += facts.symmetric_difference(&stored).count() as u64;
        }
        Ok(lost)
    };
    live.conns.clear();
    let primary = live.deployment.front;
    let args = live.deployment.servers[primary].args.clone();
    live.deployment.servers[primary].kill();
    let restart = Instant::now();
    let restarted = Server::spawn(&opts.ocqa, args)?;
    let mut conn = Conn::connect(&restarted.addr)?;
    conn.call(&inputs::answer_line(&dbs[0], 1, None))?;
    m.put(
        "store.recover_ms",
        "ms",
        restart.elapsed().as_secs_f64() * 1e3,
        1,
    );
    drop(conn);
    let lost = lost_on(&restarted.addr)?;
    let lost_standby = lost_on(&live.deployment.servers[0].addr)?;
    live.deployment.servers[primary] = restarted;
    let acked = expected.iter().map(|(_, f)| f.len() as u64).sum();
    m.put("store.acked_lost", "count", lost as f64, acked);
    check(
        checks,
        "every acknowledged write survives kill -9",
        lost == 0,
        format!("{lost} facts differ after restart"),
    );
    check(
        checks,
        "the standby holds every acknowledged write",
        lost_standby == 0,
        format!("{lost_standby} facts differ on the standby"),
    );
    let lag = m.value("engine.replicate.lag");
    check(
        checks,
        "replication lag is 0",
        lag == 0.0,
        format!("replication_lag {lag}"),
    );
    Ok(())
}
