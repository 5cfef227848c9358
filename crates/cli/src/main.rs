//! `ocqa` — command-line driver for operational consistent query answering.
//!
//! ```text
//! USAGE:
//!   ocqa check    --facts FILE --constraints FILE
//!   ocqa repairs  --facts FILE --constraints FILE [--generator NAME] [--max-states N]
//!   ocqa answer   --facts FILE --constraints FILE --query TEXT
//!                 [--generator NAME] [--exact | --eps E --delta D] [--seed N]
//!                 [--max-states N]
//!   ocqa trace    --facts FILE --constraints FILE [--generator NAME] [--seed N]
//!   ocqa serve    [--listen ADDR] [--workers N] [--conn-workers N] [--cache N]
//!                 [--planner cost] [--shards N]
//!                 [--max-inflight N] [--max-subs-per-conn N] [--data-dir PATH]
//!                 [--group-commit-us 0] [--slow-ms MS] [--metrics-addr ADDR]
//!                 [--replicate-to HOST:PORT]
//!   ocqa route    --upstream HOST:PORT [--upstream HOST:PORT ...] [--listen ADDR]
//!                 [--standby HOST:PORT|- ...] [--probe-ms MS] [--topology PATH]
//!                 [--conn-workers N] [--slow-ms MS] [--max-subs-per-conn N]
//!                 [--metrics-addr ADDR]
//!   ocqa snapshot --data-dir PATH [--db NAME]
//!   ocqa <command> --help
//!
//! GENERATORS: uniform (default) | uniform-deletions | preference
//!             | trust | trust:N/D
//! ```
//!
//! `serve` speaks newline-delimited JSON on stdin/stdout, or on a TCP
//! listener with `--listen HOST:PORT` (see the `ocqa-engine` crate docs
//! for the protocol). With `--shards N` the catalog is partitioned by
//! database name over N shard engines behind a rendezvous-hashing
//! router; responses report the serving `shard`. With `--data-dir` the
//! catalog is durable: every mutation is journaled to a write-ahead log
//! before it is acknowledged — one `shard-<k>/` store (LOCK, WAL,
//! snapshots) per shard — and a restarted server recovers every shard
//! exactly, answering bit-identically to the killed process. Every
//! acknowledged mutation is one fsync; `--group-commit-us 0` names that
//! and is accepted only so existing launch lines keep working. Automatic
//! answers always take the cheapest feasible plan by analytic step
//! count; `--planner cost` names that policy and is accepted only so
//! existing launch lines keep working (a request pins any other plan
//! with `"plan"`). `snapshot`
//! compacts such a directory offline (folds each shard's WAL into fresh
//! per-database snapshot files and truncates it).
//!
//! `route` is the multi-process deployment of the same front door: a
//! standalone router speaking the identical NDJSON protocol, proxying
//! each request to the upstream shard server owning its database name
//! (one `--upstream` per shard, in shard order; each an ordinary
//! `ocqa serve --shards 1` over its own store). Responses are
//! byte-identical to an in-process `ocqa serve --shards N` — placement
//! never changes an estimate — and the router reconnects transparently
//! when an upstream is restarted.
//!
//! The route deployment is elastic. Membership is an epoch-versioned
//! topology: the admin `rebalance` op grows the cluster live (shipping
//! each reassigned database to the new shard as a snapshot), `--standby
//! HOST:PORT` pairs an upstream with a WAL-replicated standby (run the
//! standby as a plain `ocqa serve`; start the primary with
//! `--replicate-to` pointing at it), and `--probe-ms N` turns on
//! background health probing so a dead primary fails over to its
//! standby automatically. `--topology PATH` persists membership across
//! router restarts — on startup an existing file wins over the
//! `--upstream`/`--standby` flags.
//!
//! Both long-running commands are observable: `--slow-ms N` traces any
//! request slower than N milliseconds as a structured NDJSON event on
//! stderr (with a per-stage latency breakdown and the chosen plan), and
//! `--metrics-addr HOST:PORT` serves the engine's counters and latency
//! histograms in Prometheus text exposition format — both built on the
//! `metrics` protocol op, which `ocqa route` aggregates bucket-wise
//! across its upstreams.

use ocqa_core::{answer, explain, explore, sample, ChainGenerator, RepairContext, RepairState};
use ocqa_data::Database;
use ocqa_logic::parser;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

struct Args {
    command: String,
    options: HashMap<String, String>,
    /// Options that may legally repeat (e.g. `route --upstream`),
    /// collected in order of appearance.
    multi: HashMap<String, Vec<String>>,
    flags: Vec<String>,
}

/// Per-command argument specification: which `--name value` options
/// (single-valued unless listed in `multi`) and which bare `--flag`s are
/// legal. Anything else is a usage error, as is repeating a
/// single-valued option.
struct CommandSpec {
    name: &'static str,
    options: &'static [&'static str],
    multi: &'static [&'static str],
    flags: &'static [&'static str],
}

const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "check",
        options: &["facts", "constraints"],
        multi: &[],
        flags: &["help"],
    },
    CommandSpec {
        name: "repairs",
        options: &["facts", "constraints", "generator", "max-states"],
        multi: &[],
        flags: &["help"],
    },
    CommandSpec {
        name: "answer",
        options: &[
            "facts",
            "constraints",
            "query",
            "generator",
            "eps",
            "delta",
            "seed",
            "max-states",
        ],
        multi: &[],
        flags: &["exact", "help"],
    },
    CommandSpec {
        name: "trace",
        options: &["facts", "constraints", "generator", "seed"],
        multi: &[],
        flags: &["help"],
    },
    CommandSpec {
        name: "serve",
        options: &[
            "listen",
            "workers",
            "conn-workers",
            "cache",
            "planner",
            "data-dir",
            "group-commit-us",
            "shards",
            "max-inflight",
            "max-subs-per-conn",
            "slow-ms",
            "metrics-addr",
            "replicate-to",
        ],
        multi: &[],
        flags: &["help"],
    },
    CommandSpec {
        name: "route",
        options: &[
            "listen",
            "conn-workers",
            "slow-ms",
            "max-subs-per-conn",
            "metrics-addr",
            "probe-ms",
            "topology",
        ],
        multi: &["upstream", "standby"],
        flags: &["help"],
    },
    CommandSpec {
        name: "snapshot",
        options: &["data-dir", "db"],
        multi: &[],
        flags: &["help"],
    },
];

fn parse_args() -> Result<Args, String> {
    parse_argv(std::env::args().skip(1).collect())
}

/// Strict parser shared by every command: rejects unknown commands,
/// unknown `--options`/`--flags`, duplicated options and missing values.
fn parse_argv(argv: Vec<String>) -> Result<Args, String> {
    let mut argv = argv.into_iter();
    let command = argv.next().ok_or_else(usage)?;
    if command == "help" {
        return Ok(Args {
            command,
            options: HashMap::new(),
            multi: HashMap::new(),
            flags: Vec::new(),
        });
    }
    let spec = COMMANDS
        .iter()
        .find(|spec| spec.name == command)
        .ok_or_else(|| format!("unknown command {command:?}\n{}", usage()))?;
    let mut options = HashMap::new();
    let mut multi: HashMap<String, Vec<String>> = HashMap::new();
    let mut flags = Vec::new();
    while let Some(arg) = argv.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument {arg:?}\n{}", usage()));
        };
        if spec.flags.contains(&name) {
            if !flags.iter().any(|f| f == name) {
                flags.push(name.to_string());
            }
        } else if spec.multi.contains(&name) {
            let value = argv
                .next()
                .ok_or_else(|| format!("--{name} requires a value"))?;
            multi.entry(name.to_string()).or_default().push(value);
        } else if spec.options.contains(&name) {
            let value = argv
                .next()
                .ok_or_else(|| format!("--{name} requires a value"))?;
            if options.insert(name.to_string(), value).is_some() {
                return Err(format!("duplicate option --{name}\n{}", usage()));
            }
        } else {
            return Err(format!(
                "unknown option --{name} for {command:?}\n{}",
                usage()
            ));
        }
    }
    Ok(Args {
        command,
        options,
        multi,
        flags,
    })
}

fn usage() -> String {
    "usage: ocqa <check|repairs|answer|trace|serve|route|snapshot> [--help]\n  \
     check|repairs|answer|trace: --facts FILE --constraints FILE \
     [--query TEXT] [--generator uniform|uniform-deletions|preference] \
     [--exact | --eps E --delta D] [--seed N] [--max-states N]\n  \
     serve: [--listen HOST:PORT] [--workers N] [--conn-workers N] \
     [--cache ENTRIES] [--planner cost] [--shards N] \
     [--max-inflight N] [--max-subs-per-conn N] [--data-dir PATH] \
     [--group-commit-us 0] [--slow-ms MS] [--metrics-addr HOST:PORT] \
     [--replicate-to HOST:PORT]\n  \
     route: --upstream HOST:PORT [--upstream HOST:PORT ...] \
     [--standby HOST:PORT|- ...] [--probe-ms MS] [--topology PATH] \
     [--listen HOST:PORT] [--conn-workers N] [--slow-ms MS] \
     [--max-subs-per-conn N] [--metrics-addr HOST:PORT]\n  \
     snapshot: --data-dir PATH [--db NAME]"
        .to_string()
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if args.flags.iter().any(|f| f == "help") || args.command == "help" {
        println!("{}", usage());
        return Ok(());
    }
    if args.command == "serve" {
        return serve_cmd(&args);
    }
    if args.command == "route" {
        return route_cmd(&args);
    }
    if args.command == "snapshot" {
        return snapshot_cmd(&args);
    }
    let ctx = load_context(&args)?;
    match args.command.as_str() {
        "check" => check(&ctx),
        "repairs" => repairs(&ctx, &args),
        "answer" => answer_cmd(&ctx, &args),
        "trace" => trace_cmd(&ctx, &args),
        other => unreachable!("command {other:?} validated by parse_argv"),
    }
}

/// The `shard-<k>/` store directories already under a data dir, sorted
/// by shard index. A pre-sharding, root-level store (WAL and manifest
/// directly in the data dir) is refused: opening `shard-0/` beside it
/// would start an empty catalog next to the operator's data.
fn existing_shards(dir: &std::path::Path) -> Result<Vec<(usize, std::path::PathBuf)>, String> {
    if dir.join("wal.log").exists() || dir.join("MANIFEST").exists() {
        return Err(format!(
            "{}: holds a single-shard store at its root; move its contents into {}/shard-0",
            dir.display(),
            dir.display()
        ));
    }
    let mut found = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            if let Some(k) = entry
                .file_name()
                .to_string_lossy()
                .strip_prefix("shard-")
                .and_then(|s| s.parse::<usize>().ok())
            {
                found.push((k, entry.path()));
            }
        }
    }
    found.sort();
    Ok(found)
}

/// The per-shard store directories a `serve --shards N` opens. Serving
/// with *fewer* shards than the directory holds is refused: silently
/// opening only `shard-0..N-1` would drop the extra shards' databases
/// with no error, and invite conflicting re-creates on the surviving
/// shards.
fn shard_dirs(dir: &std::path::Path, shards: usize) -> Result<Vec<std::path::PathBuf>, String> {
    if let Some((k, _)) = existing_shards(dir)?
        .into_iter()
        .find(|(k, _)| *k >= shards)
    {
        return Err(format!(
            "{}: holds shard-{k} but --shards {shards} would not open it; \
             serve with --shards {} or rebalance the directory first",
            dir.display(),
            k + 1
        ));
    }
    Ok((0..shards)
        .map(|k| dir.join(format!("shard-{k}")))
        .collect())
}

/// Boots the serving engine on stdio or a TCP listener.
fn serve_cmd(args: &Args) -> Result<(), String> {
    let mut config = ocqa_engine::EngineConfig::default();
    if let Some(n) = args.options.get("workers") {
        config.workers = n
            .parse::<usize>()
            .ok()
            .filter(|n| *n > 0)
            .ok_or("--workers expects a positive number")?;
    }
    if let Some(n) = args.options.get("cache") {
        config.cache_capacity = n
            .parse::<usize>()
            .ok()
            .filter(|n| *n > 0)
            .ok_or("--cache expects a positive number")?;
    }
    // One plan policy remains; its name is still accepted so existing
    // launch lines keep starting.
    if let Some(mode) = args.options.get("planner").filter(|mode| *mode != "cost") {
        return Err(format!(
            "--planner {mode} is no longer supported: automatic answers always take \
             the cheapest feasible plan; pin one per request with \"plan\":\"monolithic\""
        ));
    }
    if let Some(n) = args.options.get("shards") {
        config.shards = n
            .parse::<usize>()
            .ok()
            .filter(|n| *n > 0)
            .ok_or("--shards expects a positive number")?;
    }
    if let Some(n) = args.options.get("max-inflight") {
        config.max_inflight = n
            .parse::<usize>()
            .ok()
            .filter(|n| *n > 0)
            .ok_or("--max-inflight expects a positive number")?;
    }
    config.slow_ms = slow_ms_option(args)?;
    config.max_subs_per_conn = max_subs_option(args)?;
    let conn_workers = conn_workers_option(args)?;
    // One commit rule remains, one fsync per acknowledged mutation; `0`
    // names it so existing launch lines keep starting.
    if let Some(us) = args.options.get("group-commit-us").filter(|us| *us != "0") {
        return Err(format!(
            "--group-commit-us {us} is no longer supported: every acknowledged mutation \
             is one fsync; pass 0 or omit the option"
        ));
    }
    let engine = match args.options.get("data-dir") {
        Some(dir) => {
            let mut backends: Vec<std::sync::Arc<dyn ocqa_engine::StorageBackend>> = Vec::new();
            for shard_dir in shard_dirs(std::path::Path::new(dir), config.shards)? {
                let backend = ocqa_store::DiskBackend::open(&shard_dir)
                    .map_err(|e| format!("{}: {e}", shard_dir.display()))?;
                backends.push(std::sync::Arc::new(backend));
            }
            let engine = ocqa_engine::Engine::with_backends(config, backends)
                .map_err(|e| format!("{dir}: recovery failed: {e}"))?;
            let line = engine.handle_line(r#"{"op":"list"}"#).to_string();
            // Rough restored-database count for the startup banner.
            let restored = line.matches("\"name\":").count();
            eprintln!(
                "ocqa serve: data dir {dir} ({} shards, {restored} databases restored)",
                engine.shards()
            );
            engine
        }
        None => ocqa_engine::Engine::new(config),
    };
    if let Some(addr) = args.options.get("replicate-to") {
        // Synchronous WAL-style replication: every acknowledged
        // mutation is forwarded verbatim to the standby before the
        // response is written, so an acked write survives a primary
        // kill -9 (the router fails over to the standby at a new
        // topology epoch).
        engine.attach_replica(addr);
        eprintln!("ocqa serve: replicating mutations to {addr}");
    }
    spawn_metrics(args, "serve", engine.clone())?;
    match args.options.get("listen") {
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr)
                .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
            eprintln!(
                "ocqa serve: listening on {} ({} workers)",
                listener.local_addr().map_err(|e| e.to_string())?,
                config.workers
            );
            ocqa_engine::serve_listener_with(engine, listener, conn_workers)
                .map_err(|e| e.to_string())
        }
        None => {
            eprintln!(
                "ocqa serve: reading newline-delimited JSON from stdin ({} workers)",
                config.workers
            );
            ocqa_engine::serve_stdio(&*engine).map_err(|e| e.to_string())
        }
    }
}

/// Boots the multi-process shard router: a standalone front door
/// proxying the NDJSON protocol to the upstream shard servers (one per
/// `--upstream`, in shard order — the first is shard 0, the
/// prepared-handle authority). Each `--standby` pairs positionally with
/// an `--upstream` (`-` = none). Fails fast if any upstream is
/// unreachable or two upstreams serve the same database name.
fn route_cmd(args: &Args) -> Result<(), String> {
    let upstreams = args.multi.get("upstream").cloned().unwrap_or_default();
    if upstreams.is_empty() {
        return Err(format!(
            "route needs at least one --upstream HOST:PORT\n{}",
            usage()
        ));
    }
    let standbys: Vec<Option<String>> = args
        .multi
        .get("standby")
        .cloned()
        .unwrap_or_default()
        .into_iter()
        .map(|s| if s == "-" { None } else { Some(s) })
        .collect();
    if standbys.len() > upstreams.len() {
        return Err(format!(
            "{} --standby for {} --upstream; each --standby pairs \
             positionally with an --upstream (use - for none)",
            standbys.len(),
            upstreams.len()
        ));
    }
    let probe_ms = match args.options.get("probe-ms") {
        Some(n) => n
            .parse::<u64>()
            .map_err(|_| "--probe-ms expects a number")?,
        None => 0,
    };
    let proxy = ocqa_engine::RouteProxy::connect_cfg(ocqa_engine::RouteConfig {
        upstreams,
        standbys,
        slow_ms: slow_ms_option(args)?,
        max_subs: max_subs_option(args)?,
        probe_ms,
        topology_path: args.options.get("topology").map(std::path::PathBuf::from),
    })
    .map_err(|e| e.to_string())?;
    eprintln!(
        "ocqa route: epoch {}, {} upstreams ({}), {} databases",
        proxy.epoch(),
        proxy.shards(),
        proxy.upstream_addrs().join(", "),
        proxy.databases()
    );
    spawn_metrics(args, "route", proxy.clone())?;
    match args.options.get("listen") {
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr)
                .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
            eprintln!(
                "ocqa route: listening on {}",
                listener.local_addr().map_err(|e| e.to_string())?
            );
            ocqa_engine::serve_listener_with(proxy, listener, conn_workers_option(args)?)
                .map_err(|e| e.to_string())
        }
        None => {
            eprintln!("ocqa route: reading newline-delimited JSON from stdin");
            ocqa_engine::serve_stdio(&*proxy).map_err(|e| e.to_string())
        }
    }
}

/// Parses `--conn-workers` (0, the default, sizes the connection-worker
/// pool automatically from the detected core count).
fn conn_workers_option(args: &Args) -> Result<usize, String> {
    match args.options.get("conn-workers") {
        Some(n) => n
            .parse::<usize>()
            .map_err(|_| "--conn-workers expects a number".into()),
        None => Ok(0),
    }
}

/// Parses `--slow-ms` (0, the default, disables slow-request tracing).
fn slow_ms_option(args: &Args) -> Result<u64, String> {
    match args.options.get("slow-ms") {
        Some(n) => n
            .parse::<u64>()
            .map_err(|_| "--slow-ms expects a number".into()),
        None => Ok(0),
    }
}

/// Parses `--max-subs-per-conn` (defaults to 64 live subscriptions per
/// streaming session).
fn max_subs_option(args: &Args) -> Result<usize, String> {
    match args.options.get("max-subs-per-conn") {
        Some(n) => n
            .parse::<usize>()
            .ok()
            .filter(|n| *n > 0)
            .ok_or_else(|| "--max-subs-per-conn expects a positive number".into()),
        None => Ok(64),
    }
}

/// Binds `--metrics-addr` (when given) and spawns the Prometheus text
/// exposition listener over `service` — the same NDJSON front door the
/// command is about to serve, so scrapes see exactly the `stats` and
/// `metrics` ops' view.
fn spawn_metrics<S: ocqa_engine::LineService + 'static>(
    args: &Args,
    what: &str,
    service: Arc<S>,
) -> Result<(), String> {
    let Some(addr) = args.options.get("metrics-addr") else {
        return Ok(());
    };
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("cannot listen on {addr}: {e}"))?;
    eprintln!(
        "ocqa {what}: metrics listening on {}",
        listener.local_addr().map_err(|e| e.to_string())?
    );
    ocqa_engine::spawn_exposition_listener(service, listener);
    Ok(())
}

/// Offline compaction of a serve data directory: folds each shard's
/// write-ahead log into fresh per-database snapshot files, commits the
/// manifests and truncates the logs — what the serving engine's
/// background compactors do, runnable while the server is down
/// (cold-start restores then read one snapshot per database and replay
/// nothing). Iterates every `shard-<k>/` store under the directory.
fn snapshot_cmd(args: &Args) -> Result<(), String> {
    let dir = args
        .options
        .get("data-dir")
        .ok_or("--data-dir PATH is required")?;
    let stores: Vec<std::path::PathBuf> = existing_shards(std::path::Path::new(dir))?
        .into_iter()
        .map(|(_, path)| path)
        .collect();
    if stores.is_empty() {
        return Err(format!("{dir}: no shard-<k> store to compact"));
    }
    // Open every store (taking its exclusive lock) and validate --db
    // across all of them *before* compacting any: a typo must not leave
    // some shards rewritten behind a failing exit code.
    let mut opened = Vec::new();
    for path in &stores {
        let store = ocqa_store::Store::open(path, ocqa_store::StoreOptions::default())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        opened.push((path, store));
    }
    if let Some(db) = args.options.get("db") {
        let mut found = false;
        for (path, store) in &opened {
            let state = store
                .read_state()
                .map_err(|e| format!("{}: {e}", path.display()))?;
            found |= state.databases.iter().any(|img| &img.name == db);
        }
        if !found {
            return Err(format!("database {db:?} not present in {dir}"));
        }
    }
    for (path, store) in &opened {
        let summary = store
            .compact()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "compacted {}: {} databases, {} prepared queries, {} WAL bytes folded",
            path.display(),
            summary.databases.len(),
            summary.prepared,
            summary.folded_wal_bytes
        );
        for (name, version, facts) in &summary.databases {
            println!("  {name}: version {version}, {facts} facts");
        }
    }
    Ok(())
}

/// Samples one repairing sequence and prints the annotated trace.
fn trace_cmd(ctx: &Arc<RepairContext>, args: &Args) -> Result<(), String> {
    let gen = generator(args)?;
    let seed: u64 = args
        .options
        .get("seed")
        .map(|s| s.parse().map_err(|_| "--seed expects a number"))
        .transpose()?
        .unwrap_or(0);
    let mut rng = StdRng::seed_from_u64(seed);
    let trace = explain::trace_walk(ctx, gen.as_ref(), &mut rng).map_err(|e| e.to_string())?;
    println!("{trace}");
    Ok(())
}

fn load_context(args: &Args) -> Result<Arc<RepairContext>, String> {
    let facts_path = args
        .options
        .get("facts")
        .ok_or("--facts FILE is required")?;
    let constraints_path = args
        .options
        .get("constraints")
        .ok_or("--constraints FILE is required")?;
    let facts_src =
        std::fs::read_to_string(facts_path).map_err(|e| format!("{facts_path}: {e}"))?;
    let constraints_src = std::fs::read_to_string(constraints_path)
        .map_err(|e| format!("{constraints_path}: {e}"))?;
    let facts = parser::parse_facts(&facts_src).map_err(|e| format!("{facts_path}: {e}"))?;
    let sigma = parser::parse_constraints(&constraints_src)
        .map_err(|e| format!("{constraints_path}: {e}"))?;
    let schema = parser::infer_schema(&facts, &sigma).map_err(|e| e.to_string())?;
    let db = Database::from_facts(schema, facts).map_err(|e| e.to_string())?;
    Ok(RepairContext::new(db, sigma))
}

fn generator(args: &Args) -> Result<std::sync::Arc<dyn ChainGenerator>, String> {
    // One name→generator table for CLI and server alike, so a generator
    // added to the engine is automatically accepted here.
    ocqa_engine::generator_by_name(
        args.options
            .get("generator")
            .map(String::as_str)
            .unwrap_or("uniform"),
    )
    .map_err(|e| e.to_string())
}

fn explore_options(args: &Args) -> Result<explore::ExploreOptions, String> {
    let mut opts = explore::ExploreOptions::default();
    if let Some(n) = args.options.get("max-states") {
        opts.max_states = n.parse().map_err(|_| "--max-states expects a number")?;
    }
    Ok(opts)
}

fn check(ctx: &Arc<RepairContext>) -> Result<(), String> {
    let violations = ctx.initial_violations();
    println!(
        "database: {} facts over schema {}",
        ctx.d0().len(),
        ctx.d0().schema()
    );
    println!("constraints:\n{}", ctx.sigma());
    if violations.is_empty() {
        println!("consistent: no violations.");
    } else {
        println!("{} violations:", violations.len());
        for v in violations.iter() {
            let image: Vec<String> = v
                .body_image(ctx.sigma())
                .iter()
                .map(|f| f.to_string())
                .collect();
            println!("  {v}  via {{{}}}", image.join(", "));
        }
        let state = RepairState::initial(ctx.clone());
        println!("justified operations at ε:");
        for op in state.extensions() {
            println!("  {op}");
        }
    }
    Ok(())
}

fn repairs(ctx: &Arc<RepairContext>, args: &Args) -> Result<(), String> {
    let gen = generator(args)?;
    let dist = explore::repair_distribution(ctx, gen.as_ref(), &explore_options(args)?)
        .map_err(|e| e.to_string())?;
    println!(
        "{} operational repairs under {} ({} sequences, failing mass {}):",
        dist.repairs().len(),
        gen.name(),
        dist.absorbing_sequences(),
        dist.failing_mass()
    );
    for info in dist.repairs() {
        println!(
            "  p = {} ≈ {:.6}  {}",
            info.probability,
            info.probability.to_f64(),
            info.db
        );
    }
    Ok(())
}

fn answer_cmd(ctx: &Arc<RepairContext>, args: &Args) -> Result<(), String> {
    let query_src = args
        .options
        .get("query")
        .ok_or("--query TEXT is required")?;
    let query = parser::parse_query(query_src).map_err(|e| e.to_string())?;
    let gen = generator(args)?;
    if args.flags.iter().any(|f| f == "exact") {
        // `--exact` and the sampling knobs are alternatives (the usage
        // string documents `[--exact | --eps E --delta D]`); silently
        // ignoring ε/δ/seed would mislead.
        for knob in ["eps", "delta", "seed"] {
            if args.options.contains_key(knob) {
                return Err(format!("--exact conflicts with --{knob}\n{}", usage()));
            }
        }
        let dist = explore::repair_distribution(ctx, gen.as_ref(), &explore_options(args)?)
            .map_err(|e| e.to_string())?;
        println!("exact operational consistent answers:");
        for (tuple, p) in answer::operational_answers(&dist, &query) {
            println!("  {} → {} ≈ {:.6}", fmt_tuple(&tuple), p, p.to_f64());
        }
    } else {
        let eps: f64 = args
            .options
            .get("eps")
            .map(|s| s.parse().map_err(|_| "--eps expects a number"))
            .transpose()?
            .unwrap_or(0.1);
        let delta: f64 = args
            .options
            .get("delta")
            .map(|s| s.parse().map_err(|_| "--delta expects a number"))
            .transpose()?
            .unwrap_or(0.1);
        let seed: u64 = args
            .options
            .get("seed")
            .map(|s| s.parse().map_err(|_| "--seed expects a number"))
            .transpose()?
            .unwrap_or(0);
        let mut rng = StdRng::seed_from_u64(seed);
        let (answers, n) =
            sample::estimate_answers(ctx, gen.as_ref(), &query, eps, delta, &mut rng)
                .map_err(|e| e.to_string())?;
        println!(
            "approximate answers (ε = {eps}, δ = {delta}, {n} walks, generator {}):",
            gen.name()
        );
        for (tuple, p) in answers {
            println!("  {} → ≈ {p:.4}", fmt_tuple(&tuple));
        }
    }
    Ok(())
}

fn fmt_tuple(tuple: &[ocqa_data::Constant]) -> String {
    let parts: Vec<String> = tuple.iter().map(|c| c.to_string()).collect();
    format!("({})", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The `--name` tokens of a usage text.
    fn names(text: &str) -> BTreeSet<String> {
        text.split("--")
            .skip(1)
            .map(|rest| {
                rest.chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                    .collect()
            })
            .collect()
    }

    fn spec_names(spec: &CommandSpec) -> BTreeSet<String> {
        [spec.options, spec.multi, spec.flags]
            .concat()
            .into_iter()
            .map(String::from)
            .collect()
    }

    /// The module doc's USAGE block, one entry per `ocqa <command>` line
    /// with its continuation lines appended.
    fn doc_usage() -> Vec<(String, String)> {
        let mut blocks: Vec<(String, String)> = Vec::new();
        let lines = include_str!("main.rs")
            .lines()
            .map_while(|line| line.strip_prefix("//!"))
            .skip_while(|line| line.trim() != "USAGE:")
            .skip(1)
            .take_while(|line| !line.trim().is_empty());
        for line in lines {
            match line.trim().strip_prefix("ocqa ") {
                Some(rest) => {
                    let command = rest.split_whitespace().next().unwrap_or_default();
                    blocks.push((command.to_string(), rest.to_string()));
                }
                None => blocks.last_mut().expect("a command line first").1 += line,
            }
        }
        blocks
    }

    #[test]
    fn usage_texts_name_exactly_the_parsed_options() {
        let all: BTreeSet<String> = COMMANDS.iter().flat_map(spec_names).collect();
        assert_eq!(names(&usage()), all, "usage()");
        let doc = doc_usage();
        let documented: BTreeSet<String> = doc.iter().flat_map(|(_, text)| names(text)).collect();
        assert_eq!(documented, all, "module-doc USAGE block");
        // Per command, the doc lists exactly what the parser accepts
        // (`--help`, shared by every command, has a line of its own).
        for spec in COMMANDS {
            let (_, text) = doc
                .iter()
                .find(|(command, _)| command == spec.name)
                .unwrap_or_else(|| panic!("{} missing from the USAGE block", spec.name));
            let mut expected = spec_names(spec);
            expected.remove("help");
            assert_eq!(names(text), expected, "ocqa {}", spec.name);
        }
    }
}
