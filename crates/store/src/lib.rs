//! `ocqa-store` — durable snapshot + write-ahead-log storage for the
//! `ocqa-engine` serving layer.
//!
//! The paper's operational framework treats the inconsistent database as
//! a long-lived artifact that is sampled again and again; serving systems
//! persist it across sessions. This crate makes the engine's catalog
//! survive restarts:
//!
//! * **Snapshots** ([`wire`]) — one checksummed file per database: the
//!   engine's own `ocqa_engine::DbImage` (schema + facts, the constraint
//!   source text, the catalog version, the planner classification and the
//!   maintained violation set) in the engine's own encoding
//!   (`ocqa_engine::image`), inside the `ocqa_data::codec` frame. This
//!   crate defines no image type and no image codec of its own. Recovery
//!   re-parses the constraints and *restores everything else verbatim* —
//!   no `V(D, Σ)` recomputation, no re-classification.
//! * **Write-ahead log** ([`wal`]) — every `install`/`update`/`drop`/
//!   `prepare` is an `fsync`ed, CRC-framed record appended *before* the
//!   engine applies it; an install record is the same image payload,
//!   encoded from a borrow of the catalog's value. Torn tails from a
//!   crash are detected and truncated; everything acknowledged replays.
//! * **Recovery + compaction** ([`store`]) — startup replays the WAL over
//!   the latest snapshots; a background thread folds the log into fresh
//!   snapshots (and truncates it) once it crosses a size threshold.
//!   Every step is crash-idempotent: killing the process at any point —
//!   including mid-compaction — recovers the exact acknowledged state.
//! * **[`DiskBackend`]** ([`backend`]) — the `ocqa_engine::StorageBackend`
//!   implementation wiring the above into `ocqa serve --data-dir`; what
//!   [`Store::read_state`] recovers *is* the engine's `RecoveredState`.
//!
//! A restored engine serves **bit-identical answers** to its pre-kill
//! self: versions, planner routes and prepared-query handles are restored
//! exactly, so equal requests (same seed/ε/δ) sample equal walks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod error;
pub mod store;
pub mod wal;
pub mod wire;

pub use backend::DiskBackend;
pub use error::StoreError;
pub use store::{CompactionSummary, Store, StoreOptions};
pub use wal::{WalRecord, WalWriter};
pub use wire::Manifest;
