//! Runs every workload through `run.sh` with one-second windows, traced
//! and untraced, and holds the result line to `BENCHMARK.json`: exactly
//! the declared names, each once, each finite, nothing failed.

use ocqa_engine::json::{self, Json};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("bench_e2e sits in the repository root")
        .to_path_buf()
}

/// The target directory this test binary was built into
/// (`<target>/<profile>/deps/smoke-…`), so `run.sh` builds beside it
/// instead of starting a second target directory.
fn target_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("test binary path");
    exe.ancestors()
        .nth(3)
        .expect("<target>/<profile>/deps/<binary>")
        .to_path_buf()
}

fn names(spec: &Json, key: &str) -> BTreeSet<String> {
    let Some(Json::Arr(items)) = spec.get(key) else {
        panic!("BENCHMARK.json has no {key}");
    };
    items
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("metric name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let root = repo_root();
    let spec = json::parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap()).unwrap();
    for workload in names(&spec, "workloads") {
        for (trace, declared) in [
            ("0", names(&spec, "end_to_end")),
            ("1", names(&spec, "per_layer")),
        ] {
            let out = Command::new("bash")
                .arg("bench_e2e/run.sh")
                .args(["--workload", &workload, "--seed", "7", "--seconds", "1"])
                .args(["--setups", "1", "--trace", trace])
                .current_dir(&root)
                .env("CARGO_TARGET_DIR", target_dir())
                .output()
                .expect("run.sh starts");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let line = stdout.lines().last().expect("a result line");
            let result = json::parse(line).unwrap_or_else(|e| panic!("result line {line:?}: {e}"));
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{line}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{line}"
            );
            assert!(
                result.get("attempted").and_then(Json::as_u64) >= Some(1),
                "{line}"
            );
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("no metrics in {line}");
            };
            let printed: BTreeSet<String> = metrics.keys().cloned().collect();
            assert_eq!(printed, declared, "{workload} --trace {trace}");
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} = {value:?}"
                );
            }
        }
    }
}
