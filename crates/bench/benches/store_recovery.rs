//! Cold-start economics of the storage subsystem: restoring a database
//! from a compacted snapshot (decode facts + decode the persisted
//! violation set) versus re-installing it from source text (parse +
//! `ViolationSet::compute`, the `O(|D|^{|body|})` step the snapshot
//! exists to skip). The gap is what `ocqa serve --data-dir` buys on
//! restart.

use criterion::{criterion_group, criterion_main, Criterion};
use ocqa_bench::key_workload;
use ocqa_engine::{Engine, EngineConfig, ParsedDatabase};
use ocqa_store::{DiskBackend, Store, StoreOptions};
use std::path::PathBuf;
use std::sync::Arc;

const CONSTRAINTS: &str = "R(x,y), R(x,z) -> y = z.";

/// Builds a compacted data directory holding one wide database
/// (`clean` conflict-free tuples + `groups` violating pairs), returning
/// the directory and the fact source text.
fn seeded_data_dir(clean: usize, groups: usize) -> (PathBuf, String) {
    let w = key_workload(clean, groups, 2, 7);
    let facts = w.db.to_string();
    let dir = std::env::temp_dir().join(format!("ocqa-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let backend = Arc::new(
            DiskBackend::with_options(
                &dir,
                StoreOptions {
                    compact_wal_bytes: u64::MAX,
                },
            )
            .expect("open backend"),
        );
        let engine = Engine::with_backend(
            EngineConfig {
                workers: 2,
                cache_capacity: 16,
                ..EngineConfig::default()
            },
            backend.clone(),
        )
        .expect("recover empty");
        let resp = engine.handle(ocqa_engine::EngineRequest::CreateDb {
            name: "wide".into(),
            facts: facts.clone(),
            constraints: CONSTRAINTS.into(),
        });
        assert!(matches!(resp, ocqa_engine::EngineResponse::Created(_)));
        backend.store().compact().expect("compact");
    }
    (dir, facts)
}

fn bench_store_recovery(c: &mut Criterion) {
    let (dir, facts) = seeded_data_dir(400, 40);
    let mut g = c.benchmark_group("store_recovery");
    g.sample_size(10);

    // Cold restore: open the store, read the manifest + snapshot, decode
    // the database and its violation set. No violation recomputation.
    g.bench_function("cold_restore", |b| {
        b.iter(|| {
            let store = Store::open(&dir, StoreOptions::default()).expect("open");
            let state = store.read_state().expect("read state");
            assert_eq!(state.databases.len(), 1);
            state
        })
    });

    // The alternative a memory-backed server pays on every restart:
    // re-parse the source text and recompute V(D, Σ) from scratch.
    g.bench_function("reinstall", |b| {
        b.iter(|| ParsedDatabase::parse(&facts, CONSTRAINTS).expect("parse"))
    });

    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_store_recovery);
criterion_main!(benches);
