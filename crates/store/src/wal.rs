//! The append-only write-ahead log.
//!
//! One file of back-to-back records, each framed
//! `u32 LE payload-len | u32 LE crc32(payload) | payload`. Appends are
//! flushed and `fsync`ed before the engine applies the mutation they
//! journal, so a `kill -9` can lose at most a record the client never saw
//! acknowledged.
//!
//! **Torn tails.** A crash mid-append leaves a final record with a short
//! header, a short payload, or a checksum mismatch. [`scan`] stops at the
//! first such record and reports the length of the valid prefix; recovery
//! replays the prefix and truncates the file there, discarding the torn
//! tail (the mutation it described was never acknowledged). A checksum
//! mismatch *followed by more bytes* cannot be told apart from a torn
//! tail cheaply — the same policy applies, and the unreachable suffix is
//! dropped with the tail. Every record that was acknowledged before the
//! crash sits before the torn one, so nothing acknowledged is ever lost.

use crate::error::StoreError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use ocqa_data::codec;
use ocqa_data::Fact;
use ocqa_engine::image::{self, DbImage};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// One journaled mutation.
#[derive(Debug)]
pub enum WalRecord {
    /// A database install, carrying its full durable image.
    Install(DbImage),
    /// An effective update batch (netted fact lists).
    Update {
        /// Catalog name.
        db: String,
        /// The version the update committed at.
        version: u64,
        /// Facts inserted.
        added: Vec<Fact>,
        /// Facts removed.
        removed: Vec<Fact>,
    },
    /// A database drop; `version` is the dropped incarnation's version.
    Drop {
        /// Catalog name.
        db: String,
        /// Dropped version.
        version: u64,
    },
    /// A newly prepared query text and the handle ordinal it allocated
    /// (`"q<ordinal>"`). The ordinal makes replay idempotent across a
    /// compaction re-fold, exactly like the version on catalog records.
    Prepare {
        /// Query source text.
        text: String,
        /// The minted handle number.
        ordinal: u64,
    },
}

/// Hard cap on one record's payload: the frame header stores the length
/// as a `u32`, so anything larger would silently wrap and corrupt the
/// log. [`WalWriter::append_unsynced`] rejects oversized records up
/// front — the journal call fails and vetoes the mutation instead.
pub const MAX_RECORD_PAYLOAD: u64 = u32::MAX as u64;

const TAG_INSTALL: u8 = 1;
const TAG_UPDATE: u8 = 2;
const TAG_DROP: u8 = 3;
const TAG_PREPARE: u8 = 4;
/// Once journaled advisory planner feedback. Nothing writes it any more;
/// [`scan`] skips it so logs that still hold one keep recovering.
const TAG_LEGACY_FEEDBACK: u8 = 5;

impl WalRecord {
    /// The payload of an [`Install`](WalRecord::Install) record, encoded
    /// straight from a borrowed image — journaling an install never
    /// copies the database to build a record around it.
    pub fn encode_install(img: &DbImage) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_INSTALL);
        image::put_image(&mut buf, img);
        buf.freeze()
    }

    /// Serializes the record payload (unframed).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            WalRecord::Install(img) => return WalRecord::encode_install(img),
            WalRecord::Update {
                db,
                version,
                added,
                removed,
            } => {
                buf.put_u8(TAG_UPDATE);
                codec::put_name(&mut buf, db);
                codec::put_varint(&mut buf, *version);
                let delta = codec::encode_delta(added, removed);
                codec::put_varint(&mut buf, delta.len() as u64);
                buf.put_slice(&delta);
            }
            WalRecord::Drop { db, version } => {
                buf.put_u8(TAG_DROP);
                codec::put_name(&mut buf, db);
                codec::put_varint(&mut buf, *version);
            }
            WalRecord::Prepare { text, ordinal } => {
                buf.put_u8(TAG_PREPARE);
                codec::put_name(&mut buf, text);
                codec::put_varint(&mut buf, *ordinal);
            }
        }
        buf.freeze()
    }

    /// Decodes a record payload (inverse of [`encode`](Self::encode)).
    pub fn decode(payload: &[u8]) -> Result<WalRecord, StoreError> {
        let mut buf = Bytes::copy_from_slice(payload);
        if !buf.has_remaining() {
            return Err(StoreError::Corrupt("empty WAL record".into()));
        }
        let record = match buf.get_u8() {
            TAG_INSTALL => WalRecord::Install(image::get_image(&mut buf)?),
            TAG_UPDATE => {
                let db = codec::get_name(&mut buf)?;
                let version = codec::get_varint(&mut buf)?;
                let len = codec::get_count(&mut buf)?;
                let delta = buf.copy_to_bytes(len);
                let (added, removed) = codec::decode_delta(&delta)?;
                WalRecord::Update {
                    db,
                    version,
                    added,
                    removed,
                }
            }
            TAG_DROP => WalRecord::Drop {
                db: codec::get_name(&mut buf)?,
                version: codec::get_varint(&mut buf)?,
            },
            TAG_PREPARE => WalRecord::Prepare {
                text: codec::get_name(&mut buf)?,
                ordinal: codec::get_varint(&mut buf)?,
            },
            tag => return Err(StoreError::Corrupt(format!("unknown WAL tag {tag:#x}"))),
        };
        if buf.has_remaining() {
            return Err(StoreError::Corrupt(format!(
                "WAL record: {} trailing bytes",
                buf.remaining()
            )));
        }
        Ok(record)
    }
}

/// The result of scanning a WAL file.
pub struct WalScan {
    /// The records of the valid prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (everything past it is a torn
    /// tail to be truncated away).
    pub valid_len: u64,
}

/// Reads a WAL file, stopping at the first torn or checksum-failing
/// record (see the module docs). A missing file scans as empty.
pub fn scan(path: &Path) -> Result<WalScan, StoreError> {
    let data = match std::fs::read(path) {
        Ok(data) => data,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalScan {
                records: Vec::new(),
                valid_len: 0,
            })
        }
        Err(e) => return Err(e.into()),
    };
    let mut records = Vec::new();
    let mut pos = 0usize;
    while data.len() - pos >= 8 {
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().expect("4 bytes"));
        let start = pos + 8;
        if data.len() - start < len {
            break; // torn payload
        }
        let payload = &data[start..start + len];
        if codec::crc32(payload) != crc {
            break; // torn or corrupt: discard from here
        }
        // A checksummed payload that fails to *decode* is a format bug or
        // targeted corruption, not a torn write — surface it instead of
        // silently dropping acknowledged mutations.
        if payload.first() != Some(&TAG_LEGACY_FEEDBACK) {
            records.push(WalRecord::decode(payload)?);
        }
        pos = start + len;
    }
    Ok(WalScan {
        records,
        valid_len: pos as u64,
    })
}

/// The append handle. One per store; appends are already serialized by
/// the store's lock.
pub struct WalWriter {
    path: PathBuf,
    file: File,
    bytes: u64,
    /// Monotone count of records ever appended through this writer —
    /// unlike `bytes`, never reset by rotation, which is what makes it a
    /// safe durability watermark for the group-commit protocol.
    seq: u64,
}

impl WalWriter {
    /// Opens (creating if absent) the WAL at `path`, first truncating it
    /// to `valid_len` — the scanned valid prefix — so a torn tail never
    /// precedes fresh appends.
    pub fn open(path: &Path, valid_len: u64) -> Result<WalWriter, StoreError> {
        let created = !path.exists();
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        file.set_len(valid_len)?;
        if created {
            // Durability of the *directory entry*: without this, a power
            // failure after acknowledged appends could recover a
            // filesystem with no wal.log at all.
            sync_parent(path);
        }
        let mut writer = WalWriter {
            path: path.to_path_buf(),
            file,
            bytes: valid_len,
            seq: 0,
        };
        writer.seek_end()?;
        Ok(writer)
    }

    fn seek_end(&mut self) -> Result<(), StoreError> {
        use std::io::Seek;
        self.file.seek(std::io::SeekFrom::End(0))?;
        Ok(())
    }

    /// Appends one encoded record payload ([`WalRecord::encode`]) to the
    /// OS (write + flush) **without** forcing it to stable storage: the
    /// caller follows with [`sync`](Self::sync) — per append, or once
    /// per group-commit batch — and must not acknowledge the record
    /// until a sync at/after its [`seq`](Self::seq) completes. A payload
    /// above [`MAX_RECORD_PAYLOAD`] is rejected before any byte is
    /// written — the `u32` length field would wrap and corrupt the log,
    /// losing every acknowledged record behind the bad frame on the next
    /// recovery.
    pub fn append_unsynced(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        if payload.len() as u64 > MAX_RECORD_PAYLOAD {
            return Err(StoreError::TooLarge(payload.len() as u64));
        }
        let mut framed = Vec::with_capacity(payload.len() + 8);
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&codec::crc32(payload).to_le_bytes());
        framed.extend_from_slice(payload);
        self.file.write_all(&framed)?;
        self.file.flush()?;
        self.bytes += framed.len() as u64;
        self.seq += 1;
        Ok(())
    }

    /// Forces every appended record to stable storage (`sync_data`).
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Bytes in the log (header + payload, valid prefix only).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Records ever appended through this writer (monotone across
    /// rotation).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Rotates the log: the current file moves to `rotated` and a fresh
    /// empty log continues at the original path. Called with the store
    /// lock held, so no append can interleave.
    pub fn rotate_to(&mut self, rotated: &Path) -> Result<(), StoreError> {
        self.file.sync_data()?;
        std::fs::rename(&self.path, rotated)?;
        self.file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&self.path)?;
        self.bytes = 0;
        // Make the rename + fresh file durable before records land in it.
        sync_parent(&self.path);
        Ok(())
    }
}

/// Best-effort fsync of `path`'s parent directory (not every platform
/// lets a directory be opened and synced; Linux does).
fn sync_parent(path: &Path) {
    if let Some(parent) = path.parent() {
        if let Ok(d) = File::open(parent) {
            let _ = d.sync_all();
        }
    }
}

/// Reads the whole file; convenience for tests and corruption drills.
pub fn read_file(path: &Path) -> Result<Vec<u8>, StoreError> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    Ok(data)
}
