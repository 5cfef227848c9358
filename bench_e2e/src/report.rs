//! Metric bookkeeping, the `BENCHMARK.json` contract, result files and
//! `compare`.

use crate::stats::{iqr_share, median};
use ocqa_engine::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;

pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: u64,
}

/// Everything one run measured, by metric name.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64, n: u64) {
        self.0.insert(name.to_string(), Metric { value, unit, n });
    }

    pub fn value(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |m| m.value)
    }
}

/// One metric as `BENCHMARK.json` declares it.
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Regression bound as a share of the baseline (end-to-end only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness needs.
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
    pub run_seconds: f64,
}

impl Spec {
    /// Reads `BENCHMARK.json` from the current directory (the root of
    /// the checkout the harness is run from).
    pub fn load() -> Result<Spec, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
        let v = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| match v.get(key) {
            Some(Json::Arr(items)) => Ok(items.clone()),
            _ => Err(format!("BENCHMARK.json: missing list {key:?}")),
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|item| {
                    Ok(MetricSpec {
                        name: text_of(item, "name")?,
                        unit: text_of(item, "unit")?,
                        lower_is_better: text_of(item, "better")? == "lower",
                        bound: item.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            run_seconds: v
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: missing run_seconds")?,
        })
    }
}

/// The `metrics` object of the contract's result line: exactly the
/// declared names, each as measured. A declared metric the run did not
/// produce, or produced under another unit, is an error — the
/// benchmark and its declaration must not drift apart.
pub fn contract_metrics(declared: &[MetricSpec], measured: &Metrics) -> Result<Json, String> {
    let mut out = BTreeMap::new();
    for spec in declared {
        let m = measured
            .0
            .get(&spec.name)
            .ok_or_else(|| format!("declared metric {:?} was not measured", spec.name))?;
        if m.unit != spec.unit {
            return Err(format!(
                "metric {:?} measured in {:?} but declared in {:?}",
                spec.name, m.unit, spec.unit
            ));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {:?} is not finite", spec.name));
        }
        out.insert(
            spec.name.clone(),
            Json::obj([("value", m.value.into()), ("unit", m.unit.into())]),
        );
    }
    Ok(Json::Obj(out))
}

pub fn metrics_json(measured: &Metrics) -> Json {
    Json::Obj(
        measured
            .0
            .iter()
            .map(|(name, m)| {
                let entry = Json::obj([
                    ("value", m.value.into()),
                    ("unit", m.unit.into()),
                    ("n", m.n.into()),
                ]);
                (name.clone(), entry)
            })
            .collect(),
    )
}

/// Machine facts every result file carries, so a number is never read
/// without the box it was measured on.
pub fn environment() -> Vec<(&'static str, Json)> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into())
    };
    // Plain git layout only: HEAD names a ref file, or holds the hash.
    let head = read(".git/HEAD");
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => read(&format!(".git/{reference}")),
        None => head,
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", (nproc as u64).into()),
        ("kernel", read("/proc/sys/kernel/osrelease").into()),
        ("git_rev", rev.into()),
    ]
}

pub fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

/// The aligned table printed for people: name, value, unit, samples.
pub fn print_table(title: &str, measured: &Metrics, names: impl Iterator<Item = String>) {
    println!("{title}");
    for name in names {
        if let Some(m) = measured.0.get(&name) {
            println!("  {name:<44} {:>14.4} {:<8} n={}", m.value, m.unit, m.n);
        }
    }
}

/// Values of every end-to-end metric per workload in one result file
/// (the `runs` list `bench_e2e` writes; one value per repetition).
fn collect(path: &str, spec: &Spec) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Json::Arr(runs)) = doc.get("runs") else {
        return Err(format!("{path}: no \"runs\" list"));
    };
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in runs {
        // End-to-end numbers only ever come from untraced runs.
        if run.get("trace").and_then(Json::as_bool) == Some(true) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: run without a workload"))?;
        for m in &spec.end_to_end {
            if let Some(value) = run
                .get("metrics")
                .and_then(|ms| ms.get(&m.name))
                .and_then(|entry| entry.get("value"))
                .and_then(Json::as_f64)
            {
                out.entry((workload.to_string(), m.name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(out)
}

/// `compare A.json B.json`: per end-to-end metric × workload, is B
/// `within` its bound of A, `worse`, or `unresolved` because the
/// run-to-run spread of either side is wider than the bound. Returns
/// whether nothing was worse.
pub fn compare(spec: &Spec, a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (collect(a_path, spec)?, collect(b_path, spec)?);
    println!(
        "{:<14} {:<12} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    let mut all_fine = true;
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let key = (workload.clone(), m.name.clone());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                println!("{workload:<14} {:<12} missing on one side", m.name);
                all_fine = false;
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let bound = m.bound.unwrap_or(0.0);
            // Positive = B is worse, whichever way the metric points.
            let change = if m.lower_is_better {
                mb / ma - 1.0
            } else {
                1.0 - mb / ma
            };
            let spread = iqr_share(va)
                .unwrap_or(0.0)
                .max(iqr_share(vb).unwrap_or(0.0));
            let verdict = if spread > bound {
                "unresolved"
            } else if change > bound {
                all_fine = false;
                "worse"
            } else {
                "within"
            };
            println!(
                "{workload:<14} {:<12} {ma:>12.4} {mb:>12.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {verdict}",
                m.name,
                change * 100.0,
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(all_fine)
}
