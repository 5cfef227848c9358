//! The store: directory layout, recovery, and compaction.
//!
//! ```text
//! <data-dir>/
//!   MANIFEST            root artifact (see `wire::Manifest`)
//!   wal.log             active write-ahead log
//!   wal.old             rotated log, exists only while a compaction runs
//!   snapshots/
//!     db-<version>-<i>.snap   one database image per live database
//! ```
//!
//! **Recovery** composes, in order: the manifest's snapshots, then
//! `wal.old` (a compaction interrupted by a crash), then `wal.log`.
//! Replay is idempotent by version — a record at or below a database's
//! current version is skipped — so any crash point between the steps of a
//! compaction recovers exactly the acknowledged state.
//!
//! **Compaction** (triggered when the active log exceeds
//! [`StoreOptions::compact_wal_bytes`], or explicitly via
//! [`Store::compact`]) runs: rotate `wal.log` → `wal.old` (under the
//! append lock, instantaneous), rebuild the state from the *old*
//! generation (`MANIFEST` + snapshots + `wal.old`), write the new
//! snapshot files, commit the new `MANIFEST` (write-temp + rename), then
//! delete `wal.old` and any unreferenced snapshot files. Appends landing
//! in the fresh `wal.log` during the rebuild are untouched — their
//! versions are above anything the new snapshots record, so the next
//! recovery replays them on top.
//!
//! The store keeps **no in-memory copy** of the databases: compaction and
//! recovery both read purely from disk, so a store serving a multi-GB
//! catalog costs the engine no duplicate residency.

use crate::error::StoreError;
use crate::wal::{self, WalRecord, WalWriter};
use crate::wire::{self, Manifest};
use ocqa_engine::{DbImage, HistSnapshot, Histogram, RecoveredState};
use ocqa_logic::{incremental, parser, ConstraintSet};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Store tunables.
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Active-log size that triggers a compaction. Journaling reports it
    /// to the caller ([`Store::append`] returns `true` whenever the log
    /// is at or above the threshold — level-triggered, so a failed
    /// compaction is retried on the next append); the `DiskBackend`
    /// forwards the signal to its background compactor thread.
    pub compact_wal_bytes: u64,
    /// Group-commit window in microseconds (`--group-commit-us`). `0`
    /// keeps the historical behavior: every append pays its own
    /// `sync_data`. Above zero, concurrent appends write to the OS
    /// immediately but acknowledge only after a *shared* fsync: the
    /// first waiter becomes the batch leader, sleeps this window so
    /// followers can pile on, then issues one `sync_data` covering the
    /// whole batch.
    pub group_commit_us: u64,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            compact_wal_bytes: 4 << 20,
            group_commit_us: 0,
        }
    }
}

/// What a compaction did, for operator-facing reporting (`ocqa snapshot`).
#[derive(Debug)]
pub struct CompactionSummary {
    /// `(name, version, facts)` per snapshotted database.
    pub databases: Vec<(String, u64, usize)>,
    /// Prepared texts carried in the manifest.
    pub prepared: usize,
    /// Bytes of rotated log folded into the snapshots.
    pub folded_wal_bytes: u64,
}

/// Group-commit coordination: who is durable, and whether a leader is
/// currently collecting a batch.
struct CommitState {
    /// Highest WAL `seq` known to be on stable storage.
    synced_seq: u64,
    /// A leader is sleeping its window / running the batch fsync.
    leader_active: bool,
    /// Bumped on every failed batch fsync; waiters that entered before
    /// the failure surface the error instead of acking.
    err_epoch: u64,
    last_error: String,
}

/// The leader/follower protocol around one shared `sync_data`.
struct GroupCommit {
    state: std::sync::Mutex<CommitState>,
    wake: std::sync::Condvar,
    /// Records appended since the last fsync — the next batch's size.
    pending: std::sync::atomic::AtomicU64,
    /// Records-per-fsync distribution (raw counts, not µs).
    batch_hist: Histogram,
    /// Batch `sync_data` latency distribution, µs.
    fsync_hist: Histogram,
}

impl GroupCommit {
    fn new() -> GroupCommit {
        GroupCommit {
            state: std::sync::Mutex::new(CommitState {
                synced_seq: 0,
                leader_active: false,
                err_epoch: 0,
                last_error: String::new(),
            }),
            wake: std::sync::Condvar::new(),
            pending: std::sync::atomic::AtomicU64::new(0),
            batch_hist: Histogram::new(),
            fsync_hist: Histogram::new(),
        }
    }
}

/// A disk-backed store (see the module docs for the layout and the
/// crash-consistency argument).
pub struct Store {
    dir: PathBuf,
    opts: StoreOptions,
    wal: Mutex<WalWriter>,
    commit: GroupCommit,
    /// Serializes compactions (background thread vs. explicit calls):
    /// folding reads and rewrites the manifest generation, which must not
    /// interleave.
    compaction: Mutex<()>,
    /// Exclusive advisory lock on `LOCK`, held for the store's lifetime.
    /// A second process opening the same directory — an offline
    /// `ocqa snapshot` racing a live server would rotate the WAL inode
    /// out from under the server's appends and then unlink it — fails
    /// fast instead. The OS releases the lock on any process exit,
    /// `kill -9` included.
    _lock: fs::File,
}

impl Store {
    /// Opens (creating if needed) the store at `dir`: takes the
    /// directory's exclusive lock, finishes any compaction a crash
    /// interrupted, truncates the active log's torn tail, and readies
    /// the append handle. Fails with [`StoreError::Locked`] when another
    /// process holds the directory.
    pub fn open(dir: &Path, opts: StoreOptions) -> Result<Store, StoreError> {
        fs::create_dir_all(dir.join("snapshots"))?;
        let lock = fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(dir.join("LOCK"))?;
        if let Err(e) = lock.try_lock() {
            return match e {
                std::fs::TryLockError::WouldBlock => {
                    Err(StoreError::Locked(dir.display().to_string()))
                }
                std::fs::TryLockError::Error(e) => Err(e.into()),
            };
        }
        let store = Store {
            dir: dir.to_path_buf(),
            opts,
            // The scan truncates the torn tail before the writer appends;
            // the leftover-compaction fold below never touches wal.log.
            wal: Mutex::new(WalWriter::open(
                &dir.join("wal.log"),
                wal::scan(&dir.join("wal.log"))?.valid_len,
            )?),
            commit: GroupCommit::new(),
            compaction: Mutex::new(()),
            _lock: lock,
        };
        if store.wal_old_path().exists() {
            store.fold_rotated_log()?;
        }
        Ok(store)
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("MANIFEST")
    }

    fn wal_path(&self) -> PathBuf {
        self.dir.join("wal.log")
    }

    fn wal_old_path(&self) -> PathBuf {
        self.dir.join("wal.old")
    }

    fn snapshots_dir(&self) -> PathBuf {
        self.dir.join("snapshots")
    }

    /// Appends one record durably. Returns `true` whenever the active
    /// log is at or above the compaction threshold after the append.
    /// Level-triggered on purpose: if a compaction fails (transient IO
    /// error), the very next append re-raises the signal, so the log can
    /// never grow unboundedly behind a single missed edge. The compactor
    /// coalesces the resulting burst of signals.
    ///
    /// With [`StoreOptions::group_commit_us`] above zero the append
    /// itself only reaches the OS; this call then blocks until a batch
    /// fsync at/past the record's sequence number completes, so the
    /// caller's acknowledgement still implies durability — `kill -9`
    /// mid-batch can lose *unacknowledged* appends only.
    pub fn append(&self, record: &WalRecord) -> Result<bool, StoreError> {
        self.append_encoded(&record.encode())
    }

    /// [`append`](Store::append) for an already-encoded record payload
    /// (see [`WalRecord::encode_install`]).
    pub fn append_encoded(&self, payload: &[u8]) -> Result<bool, StoreError> {
        let (my_seq, crossed) = {
            let mut wal = self.wal.lock();
            wal.append_unsynced(payload)?;
            if self.opts.group_commit_us == 0 {
                wal.sync()?;
                return Ok(wal.bytes() >= self.opts.compact_wal_bytes);
            }
            (wal.seq(), wal.bytes() >= self.opts.compact_wal_bytes)
        };
        self.commit
            .pending
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.wait_durable(my_seq)?;
        Ok(crossed)
    }

    /// Blocks until a batch fsync covers WAL sequence `target`,
    /// volunteering as the batch leader when nobody else is.
    fn wait_durable(&self, target: u64) -> Result<(), StoreError> {
        let window = Duration::from_micros(self.opts.group_commit_us);
        let mut state = lock_commit(&self.commit.state);
        let entry_epoch = state.err_epoch;
        loop {
            if state.synced_seq >= target {
                return Ok(());
            }
            if state.err_epoch != entry_epoch {
                // The batch fsync that should have covered us failed: the
                // record may not be durable, so the mutation must not be
                // acknowledged. (A later batch's successful fsync would
                // also have covered us — this branch only runs when the
                // failure arrived first.)
                return Err(StoreError::Io(std::io::Error::other(
                    state.last_error.clone(),
                )));
            }
            if !state.leader_active {
                state.leader_active = true;
                drop(state);
                // Collect the batch: followers appending during this
                // window share the single fsync below.
                if !window.is_zero() {
                    std::thread::sleep(window);
                }
                let started = Instant::now();
                let (covered_seq, result) = {
                    let mut wal = self.wal.lock();
                    let covered = wal.seq();
                    (covered, wal.sync())
                };
                self.commit.fsync_hist.record(started.elapsed());
                let batch = self
                    .commit
                    .pending
                    .swap(0, std::sync::atomic::Ordering::Relaxed);
                if batch > 0 {
                    self.commit.batch_hist.record_value(batch);
                }
                state = lock_commit(&self.commit.state);
                state.leader_active = false;
                match result {
                    Ok(()) => state.synced_seq = state.synced_seq.max(covered_seq),
                    Err(e) => {
                        state.err_epoch += 1;
                        state.last_error = format!("group commit fsync failed: {e}");
                    }
                }
                self.commit.wake.notify_all();
                continue;
            }
            state = self
                .commit
                .wake
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Group-commit observability: `(records-per-fsync, fsync latency
    /// µs)` histograms. Both stay empty while
    /// [`StoreOptions::group_commit_us`] is `0`.
    pub fn commit_stats(&self) -> (HistSnapshot, HistSnapshot) {
        (
            self.commit.batch_hist.snapshot(),
            self.commit.fsync_hist.snapshot(),
        )
    }

    /// Bytes currently in the active log.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.lock().bytes()
    }

    /// The options the store was opened with.
    pub fn options(&self) -> StoreOptions {
        self.opts
    }

    /// Reads the manifest, tolerating absence (a store before its first
    /// compaction has no manifest and recovers purely from the WAL).
    fn read_manifest(&self) -> Result<Manifest, StoreError> {
        match fs::read(self.manifest_path()) {
            Ok(data) => wire::decode_manifest(&data),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Manifest::default()),
            Err(e) => Err(e.into()),
        }
    }

    /// Recovers the full state: manifest snapshots + `wal.old` +
    /// `wal.log`.
    pub fn read_state(&self) -> Result<RecoveredState, StoreError> {
        let mut replay = Replay::from_manifest(self, &self.read_manifest()?)?;
        for path in [self.wal_old_path(), self.wal_path()] {
            for record in wal::scan(&path)?.records {
                replay.apply(record)?;
            }
        }
        Ok(replay.into_state())
    }

    /// Folds the rotated log (plus the manifest generation it extends)
    /// into fresh snapshots and a fresh manifest, then deletes it.
    /// Idempotent: crash anywhere and the next [`Store::open`] finishes
    /// the job.
    fn fold_rotated_log(&self) -> Result<CompactionSummary, StoreError> {
        let folded_wal_bytes = fs::metadata(self.wal_old_path())
            .map(|m| m.len())
            .unwrap_or(0);
        let mut replay = Replay::from_manifest(self, &self.read_manifest()?)?;
        for record in wal::scan(&self.wal_old_path())?.records {
            replay.apply(record)?;
        }
        let state = replay.into_state();

        // New generation of snapshot files. Names embed the version, so a
        // generation never overwrites its predecessor's files — the old
        // manifest stays valid until the new one commits.
        let mut manifest = Manifest {
            next_version: state.next_version,
            databases: Vec::new(),
            prepared: state.prepared.clone(),
            prepared_next: state.prepared_next,
        };
        let mut summary = CompactionSummary {
            databases: Vec::new(),
            prepared: state.prepared.len(),
            folded_wal_bytes,
        };
        for (i, img) in state.databases.iter().enumerate() {
            let file = format!("db-{}-{}.snap", img.version, i);
            write_atomically(
                &self.snapshots_dir().join(&file),
                &wire::encode_snapshot(img),
            )?;
            manifest.databases.push((img.name.clone(), file));
            summary
                .databases
                .push((img.name.clone(), img.version, img.db.len()));
        }
        write_atomically(&self.manifest_path(), &wire::encode_manifest(&manifest))?;
        // The manifest is durable: the rotated log and the previous
        // generation's files are now garbage.
        match fs::remove_file(self.wal_old_path()) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let live: Vec<&str> = manifest.databases.iter().map(|(_, f)| f.as_str()).collect();
        for entry in fs::read_dir(self.snapshots_dir())? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if !live.contains(&name.as_ref()) {
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(summary)
    }

    /// Runs one full compaction: rotate the active log, fold it into the
    /// snapshots, commit the new manifest, drop the rotated log.
    /// Serialized: concurrent calls (the background compactor racing an
    /// explicit `ocqa snapshot`) queue up rather than interleave.
    pub fn compact(&self) -> Result<CompactionSummary, StoreError> {
        let _guard = self.compaction.lock();
        {
            let mut wal = self.wal.lock();
            // wal.old can only pre-exist here after a crash between
            // rotation and fold — open() handles that; under the
            // compaction lock nothing else creates it.
            if !self.wal_old_path().exists() {
                wal.rotate_to(&self.wal_old_path())?;
            }
        }
        self.fold_rotated_log()
    }
}

fn lock_commit(state: &std::sync::Mutex<CommitState>) -> std::sync::MutexGuard<'_, CommitState> {
    state
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn write_atomically(path: &Path, data: &[u8]) -> Result<(), StoreError> {
    let tmp = path.with_extension("tmp");
    {
        use std::io::Write;
        let mut f = fs::File::create(&tmp)?;
        f.write_all(data)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Make the rename itself durable (best-effort: not every platform
    // lets a directory be fsynced).
    if let Some(parent) = path.parent() {
        if let Ok(d) = fs::File::open(parent) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Replay state: the databases under reconstruction, with their parsed
/// constraint sets cached for incremental violation maintenance, and a
/// faithful model of the prepared registry's FIFO allocation.
struct Replay {
    databases: BTreeMap<String, (DbImage, ConstraintSet)>,
    /// Live `(id, text)` pairs in registry order.
    prepared: Vec<(String, String)>,
    /// The registry's id counter.
    prepared_next: u64,
    max_version: u64,
}

impl Replay {
    fn from_manifest(store: &Store, manifest: &Manifest) -> Result<Replay, StoreError> {
        let mut databases = BTreeMap::new();
        for (name, file) in &manifest.databases {
            let data = fs::read(store.snapshots_dir().join(file))?;
            let img = wire::decode_snapshot(&data)?;
            if &img.name != name {
                return Err(StoreError::Corrupt(format!(
                    "snapshot {file} holds {:?}, manifest says {name:?}",
                    img.name
                )));
            }
            let sigma = parse_sigma(&img.constraints)?;
            databases.insert(name.clone(), (img, sigma));
        }
        let max_version = manifest.next_version.max(
            databases
                .values()
                .map(|(i, _)| i.version)
                .max()
                .unwrap_or(0),
        );
        Ok(Replay {
            databases,
            prepared: manifest.prepared.clone(),
            prepared_next: manifest.prepared_next,
            max_version,
        })
    }

    fn apply(&mut self, record: WalRecord) -> Result<(), StoreError> {
        match record {
            WalRecord::Install(img) => {
                self.max_version = self.max_version.max(img.version);
                if let Some((existing, _)) = self.databases.get(&img.name) {
                    if existing.version >= img.version {
                        return Ok(()); // already folded into a snapshot
                    }
                    return Err(StoreError::Corrupt(format!(
                        "install of {:?} at version {} over live version {}",
                        img.name, img.version, existing.version
                    )));
                }
                let sigma = parse_sigma(&img.constraints)?;
                self.databases.insert(img.name.clone(), (img, sigma));
                Ok(())
            }
            WalRecord::Update {
                db,
                version,
                added,
                removed,
            } => {
                self.max_version = self.max_version.max(version);
                let Some((img, sigma)) = self.databases.get_mut(&db) else {
                    return Err(StoreError::Corrupt(format!(
                        "update for unknown database {db:?}"
                    )));
                };
                if version <= img.version {
                    return Ok(()); // already folded into a snapshot
                }
                // Replay exactly what the catalog committed: apply the
                // netted lists, then maintain the violation set
                // incrementally against the post-state.
                for f in &added {
                    img.db
                        .insert(f)
                        .map_err(|e| StoreError::Corrupt(format!("replaying insert: {e}")))?;
                }
                for f in &removed {
                    img.db.remove(f);
                }
                img.violations = incremental::update_violations(
                    sigma,
                    &img.db,
                    &img.violations,
                    &added,
                    &removed,
                );
                img.version = version;
                Ok(())
            }
            WalRecord::Drop { db, version } => {
                self.max_version = self.max_version.max(version);
                if let Some((img, _)) = self.databases.get(&db) {
                    // Only drop the incarnation the record describes: a
                    // higher live version means this drop was already
                    // folded and the name was re-created afterwards.
                    if img.version <= version {
                        self.databases.remove(&db);
                    }
                }
                Ok(())
            }
            WalRecord::Prepare { text, ordinal } => {
                // Idempotent by ordinal, mirroring the version guards on
                // the database records: a record at or below the counter
                // was already folded into the manifest (a crash between
                // the manifest commit and wal.old deletion re-folds the
                // rotated log) — a no-op even if capacity eviction has
                // since removed the text. A higher ordinal re-enacts the
                // original allocation, FIFO eviction included; ids stay
                // non-contiguous exactly as the clients saw them.
                if ordinal <= self.prepared_next {
                    return Ok(());
                }
                while self.prepared.len() >= ocqa_engine::prepared::MAX_PREPARED {
                    self.prepared.remove(0);
                }
                self.prepared_next = ordinal;
                self.prepared.push((format!("q{ordinal}"), text));
                Ok(())
            }
        }
    }

    fn into_state(self) -> RecoveredState {
        RecoveredState {
            next_version: self.max_version,
            databases: self.databases.into_values().map(|(img, _)| img).collect(),
            prepared: self.prepared,
            prepared_next: self.prepared_next,
        }
    }
}

fn parse_sigma(text: &str) -> Result<ConstraintSet, StoreError> {
    parser::parse_constraints(text)
        .map_err(|e| StoreError::Recovery(format!("recovered constraints: {e}")))
}
