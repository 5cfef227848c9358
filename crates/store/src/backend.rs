//! `DiskBackend` — the `ocqa_engine::StorageBackend` implementation over
//! [`Store`], with a background compactor thread.

use crate::error::StoreError;
use crate::store::{Store, StoreOptions};
use crate::wal::WalRecord;
use ocqa_engine::{DbImage, EngineError, RecoveredState, StorageBackend, UpdateDelta};
use parking_lot::Mutex;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Disk durability for the serving engine: every journaled mutation is an
/// `fsync`ed WAL append; recovery is snapshot + WAL replay; a dedicated
/// thread compacts (snapshot rewrite + WAL truncation) whenever the
/// active log crosses the configured threshold, off the request path.
pub struct DiskBackend {
    store: Arc<Store>,
    compact_tx: Mutex<Option<std::sync::mpsc::Sender<()>>>,
    compactor: Mutex<Option<JoinHandle<()>>>,
}

impl DiskBackend {
    /// Opens the backend at `dir` with default options.
    pub fn open(dir: &Path) -> Result<DiskBackend, StoreError> {
        DiskBackend::with_options(dir, StoreOptions::default())
    }

    /// Opens the backend at `dir` with explicit options.
    pub fn with_options(dir: &Path, opts: StoreOptions) -> Result<DiskBackend, StoreError> {
        let store = Arc::new(Store::open(dir, opts)?);
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let worker_store = store.clone();
        let compactor = std::thread::Builder::new()
            .name("ocqa-store-compactor".into())
            .spawn(move || {
                while rx.recv().is_ok() {
                    // Signals are level-triggered (one per append at or
                    // above the threshold), so coalesce the backlog and
                    // re-check the live log size: a burst of appends is
                    // one compaction, and a signal that arrives after an
                    // explicit `compact()` already truncated the log is
                    // a no-op instead of a spurious rewrite. A failed
                    // compaction needs no retry loop here — the log is
                    // still above the threshold, so the next append
                    // re-raises the signal.
                    while rx.try_recv().is_ok() {}
                    if worker_store.wal_bytes() < worker_store.options().compact_wal_bytes {
                        continue;
                    }
                    if let Err(e) = worker_store.compact() {
                        eprintln!("ocqa-store: background compaction failed: {e}");
                    }
                }
            })
            .expect("spawn compactor thread");
        Ok(DiskBackend {
            store,
            compact_tx: Mutex::new(Some(tx)),
            compactor: Mutex::new(Some(compactor)),
        })
    }

    /// The underlying store (operator tooling, tests).
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    fn journal(&self, record: &WalRecord) -> Result<(), EngineError> {
        self.journal_encoded(&record.encode())
    }

    fn journal_encoded(&self, payload: &[u8]) -> Result<(), EngineError> {
        if self.store.append_encoded(payload)? {
            if let Some(tx) = self.compact_tx.lock().as_ref() {
                let _ = tx.send(());
            }
        }
        Ok(())
    }
}

impl Drop for DiskBackend {
    fn drop(&mut self) {
        // Closing the channel stops the compactor after it drains any
        // pending signal; joining bounds shutdown.
        self.compact_tx.lock().take();
        if let Some(handle) = self.compactor.lock().take() {
            let _ = handle.join();
        }
    }
}

impl StorageBackend for DiskBackend {
    fn label(&self) -> &'static str {
        "disk"
    }

    fn recover(&self) -> Result<RecoveredState, EngineError> {
        Ok(self.store.read_state()?)
    }

    fn journal_install(&self, image: &DbImage) -> Result<(), EngineError> {
        self.journal_encoded(&WalRecord::encode_install(image))
    }

    fn journal_update(&self, delta: &UpdateDelta<'_>) -> Result<(), EngineError> {
        self.journal(&WalRecord::Update {
            db: delta.db.to_string(),
            version: delta.version,
            added: delta.inserted.to_vec(),
            removed: delta.removed.to_vec(),
        })
    }

    fn journal_drop(&self, name: &str, version: u64) -> Result<(), EngineError> {
        self.journal(&WalRecord::Drop {
            db: name.to_string(),
            version,
        })
    }

    fn journal_prepare(&self, text: &str, ordinal: u64) -> Result<(), EngineError> {
        self.journal(&WalRecord::Prepare {
            text: text.to_string(),
            ordinal,
        })
    }
}
