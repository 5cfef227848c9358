//! Crash-recovery integration tests: the acceptance gate for the storage
//! subsystem is that an engine restarted over the same data directory is
//! indistinguishable — bit-identically — from the engine that was killed.

use ocqa_store::{DiskBackend, StoreOptions, WalRecord};

use ocqa_engine::{Engine, EngineConfig, StorageBackend};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ocqa-store-{}-{}-{tag}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn engine_at(dir: &std::path::Path, opts: StoreOptions) -> Arc<Engine> {
    let backend = DiskBackend::with_options(dir, opts).expect("open backend");
    Engine::with_backend(
        EngineConfig {
            workers: 2,
            cache_capacity: 64,
            ..EngineConfig::default()
        },
        Arc::new(backend),
    )
    .expect("recovery")
}

const CREATE: &str = r#"{"op":"create_db","name":"kv","facts":"R(1,10). R(1,20). R(2,30). R(2,40). R(3,50).","constraints":"R(x,y), R(x,z) -> y = z."}"#;
const ANSWER: &str =
    r#"{"op":"answer","db":"kv","query":"(x) <- exists y: R(x,y)","eps":0.1,"delta":0.1,"seed":7}"#;

#[test]
fn restart_is_bit_identical() {
    let dir = temp_dir("bitident");
    // Session 1: install, prepare, answer (inline + prepared), stop
    // without any shutdown hook — durability must not depend on a clean
    // exit, only on acknowledged journal appends.
    let (first_answer, first_list, prepared_answer) = {
        let e = engine_at(&dir, StoreOptions::default());
        assert!(e.handle_line(CREATE).to_string().contains("\"ok\":true"));
        let prep = e
            .handle_line(r#"{"op":"prepare","query":"(y) <- exists x: R(x,y)"}"#)
            .to_string();
        assert!(prep.contains("\"id\":\"q1\""), "{prep}");
        let first_answer = e.handle_line(ANSWER).to_string();
        assert!(first_answer.contains("\"cached\":false"), "{first_answer}");
        let prepared_answer = e
            .handle_line(
                r#"{"op":"answer","db":"kv","prepared":"q1","eps":0.2,"delta":0.2,"seed":3}"#,
            )
            .to_string();
        assert!(prepared_answer.contains("\"answers\""), "{prepared_answer}");
        let list = e.handle_line(r#"{"op":"list"}"#).to_string();
        (first_answer, list, prepared_answer)
    };

    // Session 2: same directory, fresh engine.
    let e = engine_at(&dir, StoreOptions::default());
    let list = e.handle_line(r#"{"op":"list"}"#).to_string();
    assert_eq!(list, first_list, "catalog must restore exactly");
    assert!(list.contains("\"plan\":\"key-repair\""), "{list}");

    // The same answer request returns the byte-identical response line:
    // same tuples, same estimates, same walks, same version, same plan.
    let answer = e.handle_line(ANSWER).to_string();
    assert_eq!(answer, first_answer);

    // The prepared handle survived with its ordinal id — including the
    // *implicitly* prepared inline text (q2), so the next allocation is q3.
    let again = e
        .handle_line(r#"{"op":"answer","db":"kv","prepared":"q1","eps":0.2,"delta":0.2,"seed":3}"#)
        .to_string();
    assert_eq!(again, prepared_answer);
    let next = e
        .handle_line(r#"{"op":"prepare","query":"(x) <- R(x, 10)"}"#)
        .to_string();
    assert!(next.contains("\"id\":\"q3\""), "{next}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn updates_drops_and_recreates_replay() {
    let dir = temp_dir("replay");
    {
        let e = engine_at(&dir, StoreOptions::default());
        assert!(e.handle_line(CREATE).to_string().contains("\"ok\":true"));
        // Effective update (version 2), then a no-op (not journaled).
        let out = e
            .handle_line(r#"{"op":"insert","db":"kv","facts":"R(3,60). R(9,90)."}"#)
            .to_string();
        assert!(out.contains("\"version\":2"), "{out}");
        let out = e
            .handle_line(r#"{"op":"insert","db":"kv","facts":"R(9,90)."}"#)
            .to_string();
        assert!(out.contains("\"version\":2"), "no-op keeps version: {out}");
        let out = e
            .handle_line(r#"{"op":"delete","db":"kv","facts":"R(1,20)."}"#)
            .to_string();
        assert!(out.contains("\"version\":3"), "{out}");
        // Drop and recreate under the same name: versions must not alias.
        assert!(e
            .handle_line(r#"{"op":"drop_db","name":"kv"}"#)
            .to_string()
            .contains("\"ok\":true"));
        let out = e
            .handle_line(
                r#"{"op":"create_db","name":"kv","facts":"R(7,70). R(7,71).","constraints":"R(x,y), R(x,z) -> y = z."}"#,
            )
            .to_string();
        assert!(out.contains("\"version\":4"), "{out}");
    }

    let e = engine_at(&dir, StoreOptions::default());
    let list = e.handle_line(r#"{"op":"list"}"#).to_string();
    assert!(
        list.contains("\"facts\":2") && list.contains("\"version\":4"),
        "recreated incarnation restored: {list}"
    );
    // One key group of two facts = two violation homomorphisms.
    assert!(list.contains("\"violations\":2"), "{list}");
    // New installs continue above the restored counter.
    let out = e
        .handle_line(
            r#"{"op":"create_db","name":"other","facts":"S(1,1).","constraints":"S(x,y), S(x,z) -> y = z."}"#,
        )
        .to_string();
    assert!(out.contains("\"version\":5"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restored_violations_match_recomputation() {
    // The snapshot carries V(D, Σ) so recovery never recomputes it — but
    // what it carries must equal a recomputation, including after
    // incremental WAL replay.
    let dir = temp_dir("viols");
    {
        let e = engine_at(&dir, StoreOptions::default());
        e.handle_line(
            r#"{"op":"create_db","name":"d","facts":"T(a,b). R(a,b). R(a,c).","constraints":"T(x,y) -> R(x,y). R(x,y), R(x,z) -> y = z."}"#,
        );
        e.handle_line(r#"{"op":"insert","db":"d","facts":"T(q,r). R(b,b)."}"#);
        e.handle_line(r#"{"op":"delete","db":"d","facts":"R(a,b)."}"#);
    }
    let backend = DiskBackend::open(&dir).unwrap();
    let state = backend.recover().unwrap();
    let db = &state.databases[0];
    let sigma = ocqa_logic::parser::parse_constraints(&db.constraints).unwrap();
    assert_eq!(
        db.violations,
        ocqa_logic::ViolationSet::compute(&sigma, &db.db),
        "restored violation set must equal recomputation"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_is_discarded() {
    let dir = temp_dir("torn");
    {
        let e = engine_at(&dir, StoreOptions::default());
        assert!(e.handle_line(CREATE).to_string().contains("\"ok\":true"));
        e.handle_line(r#"{"op":"insert","db":"kv","facts":"R(9,90)."}"#);
    }
    // Tear the final record: chop bytes off the end of the log.
    let wal = dir.join("wal.log");
    let mut data = std::fs::read(&wal).unwrap();
    let torn_len = data.len() - 5;
    data.truncate(torn_len);
    std::fs::write(&wal, &data).unwrap();

    // The torn record (the insert) is discarded; the install replays.
    let e = engine_at(&dir, StoreOptions::default());
    let list = e.handle_line(r#"{"op":"list"}"#).to_string();
    assert!(
        list.contains("\"facts\":5") && list.contains("\"version\":1"),
        "earlier records replay, torn tail dropped: {list}"
    );
    // The truncated tail was physically removed, so new appends parse.
    // (Each engine holds the directory's exclusive lock: drop before
    // reopening.)
    drop(e);
    {
        let e2 = engine_at(&dir, StoreOptions::default());
        e2.handle_line(r#"{"op":"insert","db":"kv","facts":"R(8,80)."}"#);
    }
    let e3 = engine_at(&dir, StoreOptions::default());
    let list = e3.handle_line(r#"{"op":"list"}"#).to_string();
    assert!(list.contains("\"facts\":6"), "{list}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_record_checksum_discards_from_there() {
    let dir = temp_dir("crc");
    {
        let e = engine_at(&dir, StoreOptions::default());
        assert!(e.handle_line(CREATE).to_string().contains("\"ok\":true"));
        e.handle_line(r#"{"op":"insert","db":"kv","facts":"R(9,90)."}"#);
    }
    // Flip one byte inside the *last* record's payload.
    let wal = dir.join("wal.log");
    let mut data = std::fs::read(&wal).unwrap();
    let last = data.len() - 3;
    data[last] ^= 0xFF;
    std::fs::write(&wal, &data).unwrap();

    let e = engine_at(&dir, StoreOptions::default());
    let list = e.handle_line(r#"{"op":"list"}"#).to_string();
    assert!(
        list.contains("\"facts\":5") && list.contains("\"version\":1"),
        "checksum failure truncates to the valid prefix: {list}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_folds_wal_into_snapshots() {
    let dir = temp_dir("compact");
    // Background compactor disabled (threshold never reached): the
    // explicit compact() below is the only one that runs, so the
    // wal.old / wal_bytes assertions cannot race a queued background
    // compaction. `background_compactor_eventually_compacts` covers the
    // signalled path.
    let opts = StoreOptions {
        compact_wal_bytes: u64::MAX,
        ..StoreOptions::default()
    };
    {
        let backend = Arc::new(DiskBackend::with_options(&dir, opts).unwrap());
        let e = Engine::with_backend(
            EngineConfig {
                workers: 1,
                cache_capacity: 16,
                ..EngineConfig::default()
            },
            backend.clone(),
        )
        .unwrap();
        assert!(e.handle_line(CREATE).to_string().contains("\"ok\":true"));
        for i in 0..20 {
            e.handle_line(&format!(
                r#"{{"op":"insert","db":"kv","facts":"R(100,{i})."}}"#
            ));
        }
        let summary = backend.store().compact().unwrap();
        assert_eq!(summary.databases.len(), 1);
        let (name, version, facts) = &summary.databases[0];
        assert_eq!(name, "kv");
        assert_eq!(*version, 21, "install + 20 effective updates");
        assert_eq!(*facts, 25);
        assert_eq!(
            backend.store().wal_bytes(),
            0,
            "compaction truncates the active log"
        );
        assert!(!dir.join("wal.old").exists(), "rotated log deleted");
        // Post-compaction mutations land in the fresh log.
        e.handle_line(r#"{"op":"insert","db":"kv","facts":"R(200,1)."}"#);
    }

    // Recovery = snapshots + the post-compaction log.
    let e = engine_at(&dir, opts);
    let list = e.handle_line(r#"{"op":"list"}"#).to_string();
    assert!(
        list.contains("\"facts\":26") && list.contains("\"version\":22"),
        "{list}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn background_compactor_eventually_compacts() {
    let dir = temp_dir("bgcompact");
    // Tiny threshold: the install alone crosses it and every further
    // append re-raises the level-triggered signal, so the background
    // compactor must eventually fold the log without any explicit
    // compact() call. Assertions poll with a deadline — the compactor
    // runs on its own thread — and only on the stable end state (the
    // transient wal.old is allowed to come and go).
    let opts = StoreOptions {
        compact_wal_bytes: 256,
        ..StoreOptions::default()
    };
    {
        let backend = Arc::new(DiskBackend::with_options(&dir, opts).unwrap());
        let e = Engine::with_backend(
            EngineConfig {
                workers: 1,
                cache_capacity: 16,
                ..EngineConfig::default()
            },
            backend.clone(),
        )
        .unwrap();
        assert!(e.handle_line(CREATE).to_string().contains("\"ok\":true"));
        for i in 0..20 {
            e.handle_line(&format!(
                r#"{{"op":"insert","db":"kv","facts":"R(100,{i})."}}"#
            ));
        }
        // Rotation zeroes wal_bytes before the fold commits, so wait for
        // the committed MANIFEST as well, not just the truncated log.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while backend.store().wal_bytes() >= opts.compact_wal_bytes
            || !dir.join("MANIFEST").exists()
        {
            assert!(
                std::time::Instant::now() < deadline,
                "background compactor never folded the log ({} bytes)",
                backend.store().wal_bytes()
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }
    // Everything folded + any post-compaction log replays identically.
    let e = engine_at(&dir, opts);
    let list = e.handle_line(r#"{"op":"list"}"#).to_string();
    assert!(
        list.contains("\"facts\":25") && list.contains("\"version\":21"),
        "{list}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_compaction_recovers() {
    let dir = temp_dir("interrupted");
    {
        let e = engine_at(&dir, StoreOptions::default());
        assert!(e.handle_line(CREATE).to_string().contains("\"ok\":true"));
        e.handle_line(r#"{"op":"insert","db":"kv","facts":"R(9,90)."}"#);
    }
    // Simulate a crash immediately after the rotation step: the log has
    // moved to wal.old and nothing else happened yet.
    std::fs::rename(dir.join("wal.log"), dir.join("wal.old")).unwrap();

    let e = engine_at(&dir, StoreOptions::default());
    let list = e.handle_line(r#"{"op":"list"}"#).to_string();
    assert!(
        list.contains("\"facts\":6") && list.contains("\"version\":2"),
        "open finishes the interrupted compaction: {list}"
    );
    assert!(!dir.join("wal.old").exists());
    assert!(dir.join("MANIFEST").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dropped_databases_stay_dropped_through_compaction() {
    let dir = temp_dir("dropcompact");
    let opts = StoreOptions {
        compact_wal_bytes: u64::MAX, // no background interference
        ..StoreOptions::default()
    };
    {
        let backend = Arc::new(DiskBackend::with_options(&dir, opts).unwrap());
        let e = Engine::with_backend(EngineConfig::default(), backend.clone()).unwrap();
        assert!(e.handle_line(CREATE).to_string().contains("\"ok\":true"));
        e.handle_line(r#"{"op":"drop_db","name":"kv"}"#);
        let summary = backend.store().compact().unwrap();
        assert!(summary.databases.is_empty(), "dropped db not snapshotted");
    }
    let e = engine_at(&dir, opts);
    let list = e.handle_line(r#"{"op":"list"}"#).to_string();
    assert!(list.contains("\"databases\":[]"), "{list}");
    // The dropped incarnation's version is still fenced off.
    let out = e.handle_line(CREATE).to_string();
    assert!(out.contains("\"version\":2"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn data_dir_is_exclusively_locked() {
    let dir = temp_dir("lock");
    let first = DiskBackend::open(&dir).unwrap();
    // A second opener — an offline `ocqa snapshot` racing a live server
    // would rotate and then unlink the WAL inode the server is still
    // appending to — must fail fast instead.
    match ocqa_store::Store::open(&dir, StoreOptions::default()) {
        Err(ocqa_store::StoreError::Locked(_)) => {}
        Err(e) => panic!("expected Locked, got {e}"),
        Ok(_) => panic!("expected Locked, got a second open store"),
    }
    // Dropping the holder releases the directory.
    drop(first);
    assert!(ocqa_store::Store::open(&dir, StoreOptions::default()).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn prepared_handles_survive_eviction_and_restart() {
    // Non-contiguous prepared ids: fill the registry past one eviction,
    // re-prepare the evicted text (new, higher id), then restart — every
    // live handle must come back verbatim and the counter must not
    // re-mint evicted ids. MAX_PREPARED is 4096, so drive the registry
    // through the store's replay model directly at WAL level instead of
    // preparing 4096 queries through the engine.
    let dir = temp_dir("evict");
    {
        let e = engine_at(&dir, StoreOptions::default());
        for i in 0..3 {
            e.handle_line(&format!(r#"{{"op":"prepare","query":"(x) <- R(x, {i})"}}"#));
        }
    }
    let backend = DiskBackend::open(&dir).unwrap();
    let state = backend.recover().unwrap();
    assert_eq!(
        state.prepared,
        vec![
            ("q1".to_string(), "(x) <- R(x, 0)".to_string()),
            ("q2".to_string(), "(x) <- R(x, 1)".to_string()),
            ("q3".to_string(), "(x) <- R(x, 2)".to_string()),
        ]
    );
    assert_eq!(state.prepared_next, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn refolded_prepare_records_replay_idempotently() {
    // The crash window between a compaction's MANIFEST commit and its
    // wal.old deletion re-folds the rotated log on the next open. For
    // catalog records the version guards make that a no-op; Prepare
    // records must be guarded by their journaled ordinal — dedup by live
    // text is not enough once capacity eviction has removed some of the
    // folded texts, because re-enacting them would inflate the counter
    // and evict handles that should stay live.
    use ocqa_engine::prepared::MAX_PREPARED;
    let dir = temp_dir("refold");
    std::fs::create_dir_all(&dir).unwrap();
    let total = MAX_PREPARED as u64 + 2; // q1 and q2 get evicted
    let mut log = Vec::new();
    for i in 1..=total {
        let payload = WalRecord::Prepare {
            text: format!("(x) <- R(x, {i})"),
            ordinal: i,
        }
        .encode();
        log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        log.extend_from_slice(&ocqa_data::codec::crc32(&payload).to_le_bytes());
        log.extend_from_slice(&payload);
    }
    std::fs::write(dir.join("wal.log"), &log).unwrap();

    let opts = StoreOptions {
        compact_wal_bytes: u64::MAX,
        ..StoreOptions::default()
    };
    {
        let store = ocqa_store::Store::open(&dir, opts).unwrap();
        store.compact().unwrap();
        let state = store.read_state().unwrap();
        assert_eq!(state.prepared_next, total);
        assert_eq!(state.prepared.len(), MAX_PREPARED);
        assert_eq!(state.prepared.first().unwrap().0, "q3", "q1/q2 evicted");
    }
    // Crash simulation: the fold committed but wal.old survived.
    std::fs::write(dir.join("wal.old"), &log).unwrap();

    let store = ocqa_store::Store::open(&dir, opts).unwrap();
    let state = store.read_state().unwrap();
    assert_eq!(state.prepared_next, total, "re-fold must not inflate");
    assert_eq!(state.prepared.len(), MAX_PREPARED);
    assert_eq!(
        state.prepared.first().unwrap().0,
        "q3",
        "no spurious evictions"
    );
    assert_eq!(state.prepared.last().unwrap().0, format!("q{total}"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn direct_wal_scan_reports_valid_prefix() {
    // Unit-ish drill on the framing itself, without an engine.
    let dir = temp_dir("walscan");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal.log");
    {
        let mut w = ocqa_store::WalWriter::open(&path, 0).unwrap();
        for i in 0..3 {
            let record = WalRecord::Prepare {
                text: format!("(x) <- R(x, {i})"),
                ordinal: i + 1,
            };
            w.append_unsynced(&record.encode()).unwrap();
        }
        w.sync().unwrap();
    }
    let full = std::fs::read(&path).unwrap();
    let scan = ocqa_store::wal::scan(&path).unwrap();
    assert_eq!(scan.records.len(), 3);
    assert_eq!(scan.valid_len, full.len() as u64);
    // Any truncation point drops only the torn record (and anything
    // after it); earlier records always survive.
    for cut in 0..full.len() {
        std::fs::write(&path, &full[..cut]).unwrap();
        let scan = ocqa_store::wal::scan(&path).unwrap();
        assert!(scan.valid_len <= cut as u64);
        assert!(scan.records.len() <= 3);
        for (i, rec) in scan.records.iter().enumerate() {
            let WalRecord::Prepare { text, ordinal } = rec else {
                panic!("wrong record")
            };
            assert_eq!(text, &format!("(x) <- R(x, {i})"));
            assert_eq!(*ordinal, i as u64 + 1);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn learned_costs_and_hot_keys_survive_restart() {
    let dir = temp_dir("feedback");
    let answer_seed = |seed: u64| {
        format!(
            r#"{{"op":"answer","db":"kv","query":"(x) <- exists y: R(x,y)","eps":0.1,"delta":0.1,"seed":{seed}}}"#
        )
    };
    // Session 1: nine answers with distinct seeds. The shard journals
    // the planner-feedback image at the eighth leader observation, so
    // the image holds learned key-repair estimates plus the eight hot
    // keys cached at that point (seeds 1..=8 — seed 9's observation
    // lands after the journal).
    {
        let e = engine_at(&dir, StoreOptions::default());
        assert!(e.handle_line(CREATE).to_string().contains("\"ok\":true"));
        for seed in 1..=9u64 {
            let out = e.handle_line(&answer_seed(seed)).to_string();
            assert!(out.contains("\"cached\":false"), "{out}");
        }
    }

    // Session 2: the restarted shard resumes the learned estimates —
    // `explain` reports a `learned` cost for the chosen plan instead of
    // re-deriving from cold priors.
    let e = engine_at(&dir, StoreOptions::default());
    let explain = e.handle_line(r#"{"op":"explain","db":"kv"}"#).to_string();
    assert!(explain.contains("\"chosen\":\"key-repair\""), "{explain}");
    assert!(explain.contains("\"source\":\"learned\""), "{explain}");

    // The first answer touching the database kicks off the cache
    // pre-warm: eight replayed misses repopulate the recovered hot keys.
    let out = e.handle_line(&answer_seed(100)).to_string();
    assert!(out.contains("\"cached\":false"), "{out}");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let stats = e.handle_line(r#"{"op":"stats"}"#).to_string();
        // 1 trigger answer + 8 pre-warm replays.
        if stats.contains("\"answers\":9") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "pre-warm never completed: {stats}"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    // The counter ticks just before the cache insert; give the last
    // replay's insert a moment to land.
    std::thread::sleep(std::time::Duration::from_millis(50));
    // A pre-restart request is now served from cache on first touch.
    let out = e.handle_line(&answer_seed(3)).to_string();
    assert!(out.contains("\"cached\":true"), "{out}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn feedback_for_dead_databases_is_pruned_on_recovery() {
    use ocqa_engine::{Estimate, FeedbackImage, PlanFeedback};

    let dir = temp_dir("feedback-prune");
    {
        let backend = DiskBackend::with_options(&dir, StoreOptions::default()).unwrap();
        backend
            .journal_feedback(&FeedbackImage {
                estimates: vec![PlanFeedback {
                    db: "ghost".into(),
                    estimates: [Estimate {
                        ewma_us: 10,
                        samples: 1,
                    }; 3],
                }],
                hot_keys: Vec::new(),
            })
            .unwrap();
    }
    // "ghost" was never installed, so recovery drops its estimates: a
    // future namesake must start from cold priors.
    let backend = DiskBackend::with_options(&dir, StoreOptions::default()).unwrap();
    let state = backend.recover().unwrap();
    assert!(state.feedback.estimates.is_empty());
    assert!(state.feedback.hot_keys.is_empty());

    let _ = std::fs::remove_dir_all(&dir);
}

mod proptests {

    use ocqa_data::{codec, Constant, Database, Fact, Schema};
    use ocqa_engine::{DbImage, PlanKind};
    use ocqa_logic::ViolationSet;
    use ocqa_store::wire;
    use proptest::prelude::*;

    proptest! {
        // The ISSUE's fidelity property: Database → snapshot bytes →
        // Database is the identity (facts, schema, and the violation set
        // captured alongside).
        #[test]
        fn prop_snapshot_roundtrip_is_identity(
            rows in prop::collection::vec((0i64..30, -20i64..20), 0..60),
            version in 1u64..1000,
        ) {
            let schema = Schema::from_relations(&[("E", 2)]);
            let mut db = Database::new(schema);
            for (a, b) in rows {
                db.insert(&Fact::new("E", vec![Constant::int(a), Constant::int(b)])).unwrap();
            }
            let constraints = "E(x,y), E(x,z) -> y = z.";
            let sigma = ocqa_logic::parser::parse_constraints(constraints).unwrap();
            let violations = ViolationSet::compute(&sigma, &db);
            let img = DbImage {
                name: "e".into(),
                version,
                plan: PlanKind::KeyRepair,
                constraints: constraints.into(),
                db,
                violations,
            };
            let bytes = wire::encode_snapshot(&img);
            let decoded = wire::decode_snapshot(&bytes).unwrap();
            prop_assert!(decoded.db.same_facts(&img.db));
            prop_assert_eq!(decoded.db.schema().as_ref(), img.db.schema().as_ref());
            prop_assert_eq!(decoded.violations, img.violations);
            prop_assert_eq!(decoded.version, version);
            // And the codec delta layer composes: encode the same facts
            // as a delta and replay onto an empty database.
            let facts: Vec<Fact> = img.db.facts().collect();
            let (added, removed) = codec::decode_delta(&codec::encode_delta(&facts, &[])).unwrap();
            prop_assert_eq!(added.len(), img.db.len());
            prop_assert!(removed.is_empty());
        }
    }
}

#[test]
fn group_commit_concurrent_appends_are_durable_and_batched() {
    // Eight mutator threads race through the leader/follower protocol;
    // every acked append must be covered by a batch fsync, and the
    // batch-size histogram's sum must account for each acked record
    // exactly once.
    let dir = temp_dir("groupcommit");
    std::fs::create_dir_all(&dir).unwrap();
    let opts = StoreOptions {
        compact_wal_bytes: u64::MAX,
        group_commit_us: 2_000,
    };
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 16;
    {
        let store = Arc::new(ocqa_store::Store::open(&dir, opts).unwrap());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let store = store.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        store
                            .append(&WalRecord::Prepare {
                                text: format!("(x) <- R(x, {t}_{i})"),
                                ordinal: t * PER_THREAD + i + 1,
                            })
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let (batch, fsync) = store.commit_stats();
        assert_eq!(batch.sum_us, THREADS * PER_THREAD, "every ack counted once");
        assert!(batch.count >= 1, "at least one batch fsync");
        assert!(
            batch.count <= THREADS * PER_THREAD,
            "batches never exceed acks"
        );
        assert_eq!(
            fsync.count, batch.count,
            "one latency sample per batch fsync"
        );
    }
    // The interleaved log replays cleanly: frames are appended under the
    // writer lock, so concurrency must not tear them.
    let store = ocqa_store::Store::open(&dir, opts).unwrap();
    let scan = ocqa_store::wal::scan(&dir.join("wal.log")).unwrap();
    assert_eq!(scan.records.len(), (THREADS * PER_THREAD) as usize);
    store.read_state().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn group_commit_restart_is_bit_identical() {
    // The whole restart drill again, now with batched fsyncs: grouping
    // must change neither what survives a stop nor a single answer bit.
    let dir = temp_dir("gc-bitident");
    let opts = StoreOptions {
        compact_wal_bytes: u64::MAX,
        group_commit_us: 1_500,
    };
    let first_answer = {
        let e = engine_at(&dir, opts);
        assert!(e.handle_line(CREATE).to_string().contains("\"ok\":true"));
        let first_answer = e.handle_line(ANSWER).to_string();
        assert!(first_answer.contains("\"cached\":false"), "{first_answer}");
        first_answer
    };
    // Restart with group commit *off*: the log bytes are identical, so
    // recovery and re-answering must be too.
    let e = engine_at(&dir, StoreOptions::default());
    let replayed = e.handle_line(ANSWER).to_string();
    assert_eq!(
        replayed.replace("\"cached\":true", "\"cached\":false"),
        first_answer,
        "group-committed log must replay bit-identically"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
