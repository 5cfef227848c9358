//! On-disk wire formats, layered on the `ocqa_data::codec` primitives
//! and the engine's one image codec (`ocqa_engine::image`).
//!
//! * snapshot files — one [`DbImage`] each, framed under the `OCQS`
//!   magic. WAL `install` records carry the same image payload unframed
//!   (the WAL has its own per-record checksum), so snapshot writing and
//!   journal replay decode through one path.
//! * [`Manifest`] — the store's root: the version-counter floor, the
//!   name → snapshot-file map and the prepared-query texts in handle
//!   order, framed under `OCQM`. Format 2 ends in a planner-feedback
//!   tail that nothing uses any more: it is written empty and skipped on
//!   read, so manifests written with learned costs still open.
//!
//! Both files are `codec::frame`s (`magic | u16 format-version |
//! u32 crc32 | payload`), rejected whole on any mismatch (a torn
//! snapshot is useless; unlike the WAL there is no valid prefix to
//! salvage — recovery falls back to the previous manifest generation,
//! which compaction only deletes after the new one is durable).

use crate::error::StoreError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use ocqa_data::codec;
use ocqa_engine::image::{self, DbImage};

/// The store's root artifact: what the snapshot directory holds and in
/// which order prepared queries replay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Version-counter floor: at least the highest version the journal
    /// ever issued, dropped databases included.
    pub next_version: u64,
    /// `(database name, snapshot file name)` per live database.
    pub databases: Vec<(String, String)>,
    /// Live prepared queries as `(handle id, text)` pairs in registry
    /// (FIFO) order — ids are not contiguous once the registry has
    /// evicted, so both halves must persist.
    pub prepared: Vec<(String, String)>,
    /// The registry's id counter (highest ordinal ever allocated).
    pub prepared_next: u64,
}

const MANIFEST_MAGIC: &[u8; 4] = b"OCQM";
const SNAPSHOT_MAGIC: &[u8; 4] = b"OCQS";
/// The on-disk format version of both framed files; any other is refused.
const FORMAT_VERSION: u16 = 2;

fn corrupt(what: &str, e: codec::CodecError) -> StoreError {
    StoreError::Corrupt(format!("{what}: {e}"))
}

/// The manifest's feedback tail as written: no cost estimates, no hot
/// cache keys.
const EMPTY_FEEDBACK_TAIL: [u8; 2] = [0, 0];

/// Reads past a manifest's feedback tail without keeping it: per-database
/// cost estimates (a name and six varints each), then hot cache keys
/// (name, version, query, generator, plan tag, eps, delta, seed). Nothing
/// is allocated for either list: each count is bounded by the bytes left
/// and every entry consumes at least one byte.
fn skip_feedback_tail(buf: &mut Bytes) -> Result<(), StoreError> {
    fn skip_name(buf: &mut Bytes) -> Result<(), StoreError> {
        let len = codec::get_count(buf)?;
        buf.advance(len);
        Ok(())
    }
    for _ in 0..codec::get_count(buf)? {
        skip_name(buf)?;
        for _ in 0..6 {
            codec::get_varint(buf)?;
        }
    }
    for _ in 0..codec::get_count(buf)? {
        skip_name(buf)?;
        codec::get_varint(buf)?;
        skip_name(buf)?;
        skip_name(buf)?;
        image::get_plan(buf)?;
        for _ in 0..3 {
            codec::get_varint(buf)?;
        }
    }
    Ok(())
}

/// Serializes a snapshot file: framed, checksummed [`DbImage`].
pub fn encode_snapshot(img: &DbImage) -> Vec<u8> {
    image::encode_framed(SNAPSHOT_MAGIC, FORMAT_VERSION, img)
}

/// Decodes a snapshot file.
pub fn decode_snapshot(data: &[u8]) -> Result<DbImage, StoreError> {
    image::decode_framed(SNAPSHOT_MAGIC, FORMAT_VERSION, data).map_err(|e| corrupt("snapshot", e))
}

fn put_pairs(buf: &mut BytesMut, pairs: &[(String, String)]) {
    codec::put_varint(buf, pairs.len() as u64);
    for (a, b) in pairs {
        codec::put_name(buf, a);
        codec::put_name(buf, b);
    }
}

fn get_pairs(buf: &mut Bytes) -> Result<Vec<(String, String)>, StoreError> {
    let count = codec::get_count(buf)?;
    let mut pairs = Vec::with_capacity(count);
    for _ in 0..count {
        pairs.push((codec::get_name(buf)?, codec::get_name(buf)?));
    }
    Ok(pairs)
}

/// Serializes the manifest file.
pub fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut buf = BytesMut::new();
    codec::put_varint(&mut buf, m.next_version);
    put_pairs(&mut buf, &m.databases);
    put_pairs(&mut buf, &m.prepared);
    codec::put_varint(&mut buf, m.prepared_next);
    buf.put_slice(&EMPTY_FEEDBACK_TAIL);
    codec::frame(MANIFEST_MAGIC, FORMAT_VERSION, &buf)
}

/// Decodes the manifest file.
pub fn decode_manifest(data: &[u8]) -> Result<Manifest, StoreError> {
    let payload =
        codec::unframe(MANIFEST_MAGIC, FORMAT_VERSION, data).map_err(|e| corrupt("manifest", e))?;
    let mut buf = Bytes::copy_from_slice(payload);
    let next_version = codec::get_varint(&mut buf)?;
    let databases = get_pairs(&mut buf)?;
    let prepared = get_pairs(&mut buf)?;
    let prepared_next = codec::get_varint(&mut buf)?;
    skip_feedback_tail(&mut buf)?;
    codec::expect_end(&buf).map_err(|e| corrupt("manifest", e))?;
    Ok(Manifest {
        next_version,
        databases,
        prepared,
        prepared_next,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_manifest() -> Manifest {
        Manifest {
            next_version: 42,
            databases: vec![
                ("alpha".into(), "db-7-0.snap".into()),
                ("beta".into(), "db-9-1.snap".into()),
            ],
            prepared: vec![
                ("q1".into(), "(x) <- R(x,1)".into()),
                ("q4".into(), "(y) <- R(1,y)".into()),
            ],
            prepared_next: 9,
        }
    }

    #[test]
    fn manifest_roundtrip() {
        let m = sample_manifest();
        assert_eq!(decode_manifest(&encode_manifest(&m)).unwrap(), m);
        let empty = Manifest::default();
        assert_eq!(decode_manifest(&encode_manifest(&empty)).unwrap(), empty);
    }

    #[test]
    fn only_the_current_format_version_is_read() {
        let good = encode_manifest(&sample_manifest());
        for version in [1u16, 3] {
            let data = codec::frame(MANIFEST_MAGIC, version, &good[10..]);
            let err = decode_manifest(&data).unwrap_err();
            assert!(
                err.to_string().contains("unsupported format version"),
                "v{version}: {err}"
            );
        }
        // A snapshot is not a manifest, and vice versa.
        assert!(matches!(
            decode_snapshot(&good),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn manifest_length_fields_cannot_size_an_allocation() {
        // The manifest's varints in payload order; the four marked ones
        // are list counts, the last two in the skipped feedback tail.
        // Each in turn claims 2^44 entries inside a frame whose checksum
        // is correct, and is refused before anything is allocated for it.
        const COUNTS: [usize; 4] = [1, 2, 4, 5]; // databases, prepared, estimates, hot keys
        for hostile in COUNTS {
            let mut buf = BytesMut::new();
            for field in 0..=hostile {
                codec::put_varint(&mut buf, if field == hostile { 1 << 44 } else { 0 });
            }
            let data = codec::frame(MANIFEST_MAGIC, FORMAT_VERSION, &buf);
            assert!(decode_manifest(&data).is_err(), "varint #{hostile}");
        }
        // All six at zero is the empty manifest.
        let empty = codec::frame(MANIFEST_MAGIC, FORMAT_VERSION, &[0; 6]);
        assert_eq!(decode_manifest(&empty).unwrap(), Manifest::default());
    }
}
