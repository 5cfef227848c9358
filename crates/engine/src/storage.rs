//! The storage seam: pluggable durability for the engine's catalog and
//! prepared-query registry.
//!
//! The engine treats storage as a **write-ahead journal plus a recovery
//! source**. Every catalog mutation (`install`/`update`/`drop`) and every
//! newly prepared query text is offered to the backend *before* it is
//! applied in memory — a backend that fails the journal call vetoes the
//! mutation, so the durable log can never lag the served state. At
//! startup [`StorageBackend::recover`] returns the whole persisted world:
//! one [`DbImage`] per database (the same value `journal_install` was
//! handed, advanced by the journaled updates), plus the prepared-query
//! texts in their original preparation order (handle ids are ordinal, so
//! replaying the texts in order reproduces the exact pre-restart handles).
//! That is all the state there is: plan choice is a function of the
//! recovered databases alone, so no planner state is journaled and a
//! recovered shard routes every request exactly as before the restart.
//!
//! Two implementations exist:
//!
//! * [`MemoryBackend`] — the default; journals nothing and recovers an
//!   empty state. This is exactly the engine's historical behavior.
//! * `DiskBackend` in the `ocqa-store` crate — snapshots layered on
//!   `ocqa_data::codec` plus an append-only, checksummed WAL with crash
//!   recovery and background compaction.
//!
//! The trait lives here (not in `ocqa-store`) so the engine stays free of
//! file-system concerns and other backends (remote/replicated stores, the
//! ROADMAP's sharding hand-off) can plug in without touching the serving
//! layer.
//!
//! Under sharding ([`crate::Engine::with_backends`]) each
//! [`crate::ShardEngine`] owns **one backend of its own** — for disk
//! stores, a `shard-<k>/` directory with its own LOCK, WAL and snapshot
//! generation — so shards journal and recover with no coordination, and
//! a shard's whole slice of the catalog can be handed to another process
//! by pointing it at the directory.

use crate::error::EngineError;
use crate::image::DbImage;
use ocqa_data::Fact;

/// The net effect of an update batch, offered to the backend before the
/// catalog commits it. `inserted`/`removed` are the **netted** lists (the
/// same ones the incremental violation maintenance consumes), so replay
/// applies them verbatim.
pub struct UpdateDelta<'a> {
    /// Catalog name.
    pub db: &'a str,
    /// The version the update will commit at.
    pub version: u64,
    /// Facts absent before and present after.
    pub inserted: &'a [Fact],
    /// Facts present before and absent after.
    pub removed: &'a [Fact],
}

/// The persisted world handed to a starting engine.
#[derive(Default)]
pub struct RecoveredState {
    /// Databases to restore verbatim, in any order.
    pub databases: Vec<DbImage>,
    /// Live prepared queries as `(handle id, text)` pairs in registry
    /// (FIFO) order. Ids are restored verbatim — after registry-capacity
    /// evictions they are *not* contiguous, so texts alone could not
    /// reproduce them.
    pub prepared: Vec<(String, String)>,
    /// The registry's id counter (highest ordinal ever allocated,
    /// evicted handles included), so post-restart allocations can never
    /// alias a pre-restart handle.
    pub prepared_next: u64,
    /// Floor for the catalog's global version counter: at least the
    /// highest version ever issued, *including dropped databases*, so a
    /// recreate after restart can never alias a pre-restart version.
    pub next_version: u64,
}

impl RecoveredState {
    /// An empty state (what [`MemoryBackend`] recovers).
    pub fn empty() -> RecoveredState {
        RecoveredState::default()
    }
}

/// A durability backend for the engine. See the module docs for the
/// journaling contract; all methods must be callable from any thread
/// (the engine journals under its catalog/registry locks).
pub trait StorageBackend: Send + Sync {
    /// Short name reported in `stats` (`"memory"`, `"disk"`, …).
    fn label(&self) -> &'static str;

    /// Loads the persisted state at engine startup.
    fn recover(&self) -> Result<RecoveredState, EngineError>;

    /// Journals a database install: the image is the already-validated
    /// state the catalog is about to commit (a fresh `create_db` or a
    /// shipped snapshot alike). Returning an error vetoes it.
    fn journal_install(&self, image: &DbImage) -> Result<(), EngineError>;

    /// Journals an effective update batch. Returning an error vetoes it.
    fn journal_update(&self, delta: &UpdateDelta<'_>) -> Result<(), EngineError>;

    /// Journals a drop; `version` is the dropped incarnation's version.
    fn journal_drop(&self, name: &str, version: u64) -> Result<(), EngineError>;

    /// Journals a newly prepared query text (called only for texts that
    /// allocate a new handle — re-preparing an existing text is not a
    /// mutation). `ordinal` is the handle number the allocation will
    /// mint (`"q<ordinal>"`); journaling it makes replay idempotent — a
    /// record at or below the recovered counter is a refolded duplicate
    /// and is skipped, mirroring the version guards on catalog records.
    fn journal_prepare(&self, text: &str, ordinal: u64) -> Result<(), EngineError>;
}

/// The no-op backend: nothing persists, recovery is empty. Exactly the
/// engine's pre-storage behavior, at zero cost on the mutation paths.
#[derive(Debug, Default, Clone, Copy)]
pub struct MemoryBackend;

impl StorageBackend for MemoryBackend {
    fn label(&self) -> &'static str {
        "memory"
    }

    fn recover(&self) -> Result<RecoveredState, EngineError> {
        Ok(RecoveredState::empty())
    }

    fn journal_install(&self, _image: &DbImage) -> Result<(), EngineError> {
        Ok(())
    }

    fn journal_update(&self, _delta: &UpdateDelta<'_>) -> Result<(), EngineError> {
        Ok(())
    }

    fn journal_drop(&self, _name: &str, _version: u64) -> Result<(), EngineError> {
        Ok(())
    }

    fn journal_prepare(&self, _text: &str, _ordinal: u64) -> Result<(), EngineError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_backend_recovers_empty() {
        let state = MemoryBackend.recover().unwrap();
        assert!(state.databases.is_empty());
        assert!(state.prepared.is_empty());
        assert_eq!(state.next_version, 0);
        assert_eq!(MemoryBackend.label(), "memory");
    }
}
