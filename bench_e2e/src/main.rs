//! `bench_e2e` — socket-level latency and throughput of the ocqa
//! serving stack on four workloads, with a per-layer traced run.
//!
//! ```text
//! bench_e2e --ocqa-bin PATH [--workload NAME] [--seed N] [--seconds S]
//!           [--trace 0|1] [--setups K] [--reps R] [--out-dir DIR]
//! bench_e2e compare A.json B.json
//! ```
//!
//! With `--workload` it runs that one workload and ends its standard
//! output with the result line of the benchmark contract
//! (`BENCHMARK.json`); without, it runs all four (`--reps` times each;
//! with `--trace 1` an untraced and a traced run of each) and writes
//! one result file. Run it from the repository root, through
//! `bench_e2e/run.sh`, which builds both binaries first.

mod client;
mod deploy;
mod drivers;
mod inputs;
mod live;
mod probes;
mod proc;
mod report;
mod snapshot;
mod stats;
mod trace;
mod workload;

use ocqa_engine::json::Json;
use report::Spec;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Kind, Outcome, RunOpts, WORKLOADS};

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    setups: usize,
    reps: usize,
    ocqa: Option<PathBuf>,
    out_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        setups: 3,
        reps: 1,
        ocqa: None,
        out_dir: PathBuf::from(target).join("bench_e2e"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => args.seed = number()?,
            "--seconds" => {
                let s = value.parse::<f64>().ok().filter(|s| *s > 0.0);
                args.seconds = Some(s.ok_or_else(|| {
                    format!("--seconds expects a positive number, got {value:?}")
                })?);
            }
            "--trace" => args.trace = number()? != 0,
            "--setups" => args.setups = number()?.max(1) as usize,
            "--reps" => args.reps = number()?.max(1) as usize,
            "--ocqa-bin" => args.ocqa = Some(PathBuf::from(value)),
            "--out-dir" => args.out_dir = PathBuf::from(value),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(args)
}

/// One run as it goes into a result file: the metrics with their
/// sample counts, and everything needed to read them — window lengths,
/// server flags, operations per phase, the checks.
fn run_json(kind: Kind, trace: bool, outcome: &Outcome) -> Json {
    let phases = outcome
        .phases
        .iter()
        .map(|(name, c)| {
            Json::obj([
                ("phase", (*name).into()),
                ("attempted", c.attempted.into()),
                ("succeeded", (c.attempted - c.failed).into()),
                ("failed", c.failed.into()),
            ])
        })
        .collect();
    let checks = outcome
        .checks
        .iter()
        .map(|c| {
            Json::obj([
                ("check", c.name.into()),
                ("ok", c.ok.into()),
                ("detail", c.detail.clone().into()),
            ])
        })
        .collect();
    let flags = outcome
        .server_flags
        .iter()
        .map(|argv| Json::Arr(argv.iter().map(|a| a.clone().into()).collect()))
        .collect();
    Json::obj([
        ("workload", kind.name().into()),
        ("trace", trace.into()),
        ("untraced_window_s", outcome.untraced_s.into()),
        ("traced_window_s", outcome.traced_s.into()),
        ("server_flags", Json::Arr(flags)),
        ("phases", Json::Arr(phases)),
        ("checks", Json::Arr(checks)),
        (
            "errors",
            Json::Arr(outcome.errors.iter().map(|e| e.clone().into()).collect()),
        ),
        ("metrics", report::metrics_json(&outcome.metrics)),
    ])
}

fn result_file(args: &Args, seconds: f64, runs: Vec<Json>) -> Json {
    let mut doc = Json::obj([
        ("bench", "bench_e2e".into()),
        ("seed", args.seed.into()),
        ("run_seconds", seconds.into()),
        ("setups", (args.setups as u64).into()),
        ("repetitions", (args.reps as u64).into()),
        ("runs", Json::Arr(runs)),
    ]);
    for (key, value) in report::environment() {
        doc.set(key, value);
    }
    doc
}

/// Runs one workload once and prints what it measured.
fn measure(
    args: &Args,
    spec: &Spec,
    kind: Kind,
    trace: bool,
    seconds: f64,
) -> Result<Outcome, String> {
    let ocqa = args
        .ocqa
        .clone()
        .ok_or("--ocqa-bin PATH is required (bench_e2e/run.sh passes it)")?;
    let dir = args
        .out_dir
        .join(format!("run-{}-{}", std::process::id(), kind.name()));
    let outcome = workload::run(&RunOpts {
        kind,
        seed: args.seed,
        seconds,
        trace,
        setups: args.setups,
        ocqa,
        dir: dir.clone(),
        out_dir: args.out_dir.clone(),
    });
    // Data directories and WALs go; the trace file was written beside.
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = outcome?;
    let title = format!(
        "{} seed {} ({}, window {:.1}s{})",
        kind.name(),
        args.seed,
        if trace { "traced" } else { "untraced" },
        outcome.untraced_s,
        if trace {
            format!(" + {:.1}s traced", outcome.traced_s)
        } else {
            String::new()
        },
    );
    let declared: Vec<&str> = spec
        .end_to_end
        .iter()
        .chain(&spec.per_layer)
        .map(|m| m.name.as_str())
        .collect();
    let scoped = outcome
        .metrics
        .0
        .keys()
        .filter(|name| !declared.contains(&name.as_str()))
        .cloned();
    if trace {
        report::print_table(
            &title,
            &outcome.metrics,
            spec.per_layer.iter().map(|m| m.name.clone()).chain(scoped),
        );
    } else {
        report::print_table(
            &title,
            &outcome.metrics,
            spec.end_to_end.iter().map(|m| m.name.clone()).chain(scoped),
        );
    }
    for c in &outcome.checks {
        println!(
            "  [{}] {} — {}",
            if c.ok { "ok" } else { "FAILED" },
            c.name,
            c.detail
        );
    }
    for e in &outcome.errors {
        println!("  error: {e}");
    }
    Ok(outcome)
}

fn run() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load()?;
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            return Err("usage: bench_e2e compare A.json B.json".into());
        };
        return report::compare(&spec, a, b);
    }
    let args = parse_args(&argv)?;
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;

    if let Some(kind) = args.workload {
        // The benchmark contract: one workload, one result line.
        let outcome = measure(&args, &spec, kind, args.trace, seconds)?;
        let path = args.out_dir.join(format!(
            "result-{}-seed{}-trace{}.json",
            kind.name(),
            args.seed,
            u8::from(args.trace)
        ));
        report::write_json(
            &path,
            &result_file(&args, seconds, vec![run_json(kind, args.trace, &outcome)]),
        )?;
        let declared = if args.trace {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        let correct = outcome.checks.iter().all(|c| c.ok);
        let window = outcome
            .phases
            .iter()
            .filter(|(name, _)| matches!(*name, "untraced" | "traced"));
        let (attempted, failed) =
            window.fold((0, 0), |(a, f), (_, c)| (a + c.attempted, f + c.failed));
        let line = Json::obj([
            ("correct", correct.into()),
            ("attempted", attempted.into()),
            ("failed", failed.into()),
            (
                "metrics",
                report::contract_metrics(declared, &outcome.metrics)?,
            ),
        ]);
        println!("{line}");
        return Ok(correct);
    }

    // Every workload, `--reps` times; the traced run rides along when
    // asked for, and end-to-end numbers only ever come from untraced runs.
    let mut runs = Vec::new();
    let mut correct = true;
    for _ in 0..args.reps {
        for kind in WORKLOADS {
            for trace in [false, true] {
                if trace && !args.trace {
                    continue;
                }
                let outcome = measure(&args, &spec, kind, trace, seconds)?;
                correct &= outcome.checks.iter().all(|c| c.ok);
                report::contract_metrics(
                    if trace {
                        &spec.per_layer
                    } else {
                        &spec.end_to_end
                    },
                    &outcome.metrics,
                )?;
                runs.push(run_json(kind, trace, &outcome));
            }
        }
    }
    let path = args
        .out_dir
        .join(format!("result-all-seed{}.json", args.seed));
    report::write_json(&path, &result_file(&args, seconds, runs))?;
    println!("wrote {}", path.display());
    Ok(correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
